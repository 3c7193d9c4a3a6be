"""Check that two source trees of tqsf produce byte-identical CLI outputs.

Usage:  python scripts/same_output.py OLD_ROOT NEW_ROOT

Each root is a checkout of this repository. Every configuration below runs
as `python -m tqsf.cli` in a subprocess with PYTHONPATH=<root>/src, inside
a fresh output directory per tree, so the two runs differ only in the
source they import. The exit code, stdout, stderr and every written file
are compared byte for byte, except the value of `metadata.timestamp` in
the run JSON and each root's own path in stderr, which a placeholder
replaces. Every differing configuration is printed; when its run JSON
differs, a second line gives the largest |probability difference| over its
rows, whether labels and `raw_bits` agree row for row, and how many
sampled counts moved; when a `verify` report differs, it gives whether the
check names and PASS/FAIL verdicts agree line for line and how many detail
strings moved. The exit status is 1 on any difference and 0 when all
outputs match.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

METHODS = ("a", "b-s2j", "b-hj", "c", "c-deferred")
TIMESTAMP = re.compile(rb'"timestamp": "[^"]*"')
CHECK = re.compile(rb"^\[(PASS|FAIL)\] ([^:]*): ?(.*)$")  # a `verify` report line


def _configs(state_file):
    """(name, argv) pairs; `state_file(n)` is the path of the seeded n-qubit state."""
    runs = [(m, 4, "hadamard-x13", 2000, ()) for m in METHODS]
    runs += [(m, 5, 5, 20000, ()) for m in METHODS]
    runs += [
        ("a", 10, 10, 100000, ()),
        ("b-hj", 5, 5, 100000, ()),
        ("c", 10, 10, 20000, ()),
        ("c", 12, 12, 20000, ()),
        ("c-deferred", 8, 8, 100000, ()),
        ("c-deferred", 9, 9, 100000, ()),  # the `sequential` workload's c-deferred request
        ("a", 8, 8, 2000, ("--mode", "trotter", "--trotter-steps", "16")),
        ("b-s2j", 4, 4, 2000, ("--mode", "trotter", "--trotter-steps", "16")),
        ("b-s2j", 5, 5, 10000, ("--mode", "trotter", "--trotter-steps", "16")),
        ("b-hj", 4, 4, 2000, ("--mode", "trotter")),
        # n = 5 coupling-register leakage: most nonzero readouts decode to no path
        ("b-hj", 5, 5, 10000, ("--mode", "trotter", "--trotter-steps", "2")),
        ("a", 5, 5, 2000, ("--mode", "trotter", "--trotter-steps", "3")),
    ]
    for method, n, state, shots, extra in runs:
        name = "-".join(["run", method, f"n{n}", str(state), str(shots),
                         *(arg.lstrip("-") for arg in extra)])
        if isinstance(state, int):
            state = f"@{state_file(state)}"
        yield name, ["run", "--n", str(n), "--state", state, "--method", method,
                     "--shots", str(shots), *extra,
                     "--out", f"{name}.json", "--csv", f"{name}.csv"]
    # the SVG chart, and the two refusals of method c: the path tree exits 3,
    # a missing --shots exits 2, and each message goes to stderr
    name = "run-b-hj-n4-hadamard-x13-2000-plot"
    yield name, ["run", "--n", "4", "--state", "hadamard-x13", "--method", "b-hj",
                 "--shots", "2000", "--out", f"{name}.json", "--plot", f"{name}.svg"]
    yield "run-c-n14-10", ["run", "--n", "14", "--method", "c", "--shots", "10",
                           "--out", "run-c-n14-10.json"]
    yield "run-c-n3", ["run", "--n", "3", "--method", "c", "--out", "run-c-n3.json"]
    yield "verify-n6", ["verify", "--n-max", "6"]
    yield "verify-n3-report", ["verify", "--n-max", "3", "--states-per-n", "2",
                               "--out", "report.json"]
    # random states other than the default ones through the oracle checks
    yield "verify-n6-seed99", ["verify", "--n-max", "6", "--states-per-n", "3", "--seed", "99"]
    yield "rng-demo-n12", ["rng-demo", "--n", "12", "--shots", "5000", "--out", "rng.csv"]
    # register sizing: every method at n=5, then method a's spin register at an
    # even n, an odd n, and an odd n whose 21 qubits exit 3 with the total in the message
    layouts = [(m, 5) for m in METHODS] + [("a", 10), ("a", 9), ("a", 11)]
    for method, n in layouts:
        yield f"layout-{method}-n{n}", ["layout", "--n", str(n), "--method", method]


def _write_state(path: Path, n: int) -> None:
    """Seeded random n-qubit state, one 'real imag' pair per line."""
    rng = np.random.default_rng(100 + n)
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    amps /= np.linalg.norm(amps)
    path.write_text("".join(f"{float(a.real)!r} {float(a.imag)!r}\n" for a in amps))


def _run(root: Path, argv: list[str], workdir: Path) -> dict[str, bytes]:
    """Exit code, stdout, stderr and written files of one CLI call."""
    workdir.mkdir(parents=True)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-m", "tqsf.cli", *argv], cwd=workdir,
                          env=env, capture_output=True)
    # a warning names its source file, which lies under the root
    stderr = proc.stderr.replace(os.fsencode(root), b"<root>")
    out = {"exit": str(proc.returncode).encode(), "stdout": proc.stdout, "stderr": stderr}
    for path in sorted(workdir.iterdir()):
        out[path.name] = TIMESTAMP.sub(b'"timestamp": ""', path.read_bytes())
    return out


def _rows_detail(old: bytes, new: bytes) -> str:
    """Row-by-row summary of two run result documents."""
    old_rows, new_rows = (json.loads(doc)["outcomes"] for doc in (old, new))

    def keyed(rows):
        return {tuple(sorted(row["raw_bits"].items())): row for row in rows}

    a, b = keyed(old_rows), keyed(new_rows)
    common = [key for key in a if key in b]
    agree = ([(r["label"], r["raw_bits"]) for r in old_rows]
             == [(r["label"], r["raw_bits"]) for r in new_rows])
    dp = max((abs(a[k]["probability"] - b[k]["probability"]) for k in common), default=0.0)
    moved = [k for k in common if a[k].get("count") != b[k].get("count")]
    shots = sum(abs(a[k].get("count", 0) - b[k].get("count", 0)) for k in moved) // 2
    rows = ("labels and raw_bits agree row for row" if agree else
            f"labels or raw_bits differ ({len(old_rows)} -> {len(new_rows)} rows, "
            f"{len(common)} common)")
    detail = f"max |dprobability| {dp:.3g} over {len(common)} rows; {rows}; "
    if not moved:
        return detail + "no count moved"
    changes = ", ".join(f"{a[k]['label_text']} {a[k].get('count')} -> {b[k].get('count')}"
                        for k in moved)
    return detail + f"counts moved on {len(moved)} rows, {shots} shots: {changes}"


def _verify_detail(old: bytes, new: bytes) -> str:
    """Line-by-line summary of two `verify` reports."""

    def checks(report):
        # (verdict, check name, detail); a line that is no check keeps its text as the name
        return [m.groups() if m else (None, line, b"")
                for line, m in ((line, CHECK.match(line)) for line in report.splitlines())]

    a, b = checks(old), checks(new)
    agree = [c[:2] for c in a] == [c[:2] for c in b]
    verdicts = ("check names and verdicts agree line for line" if agree else
                f"check names or verdicts differ ({len(a)} -> {len(b)} lines)")
    moved = sum(x[2] != y[2] for x, y in zip(a, b))
    return f"{verdicts}; {moved} of {len(a)} detail strings moved"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        return 2
    old_root, new_root = (Path(a).resolve() for a in args)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)

        def state_file(n: int) -> Path:
            path = tmp / f"state-n{n}.txt"
            if not path.exists():
                _write_state(path, n)
            return path

        configs = list(_configs(state_file))
        differing = []
        for name, cli_args in configs:
            old = _run(old_root, cli_args, tmp / "old" / name)
            new = _run(new_root, cli_args, tmp / "new" / name)
            if old != new:
                keys = sorted(k for k in old.keys() | new.keys() if old.get(k) != new.get(k))
                differing.append(name)
                print(f"DIFFERS {name}: {', '.join(keys)}")
                result = f"{name}.json"
                if result in keys and result in old and result in new:
                    print(f"        {_rows_detail(old[result], new[result])}")
                if cli_args[0] == "verify" and "stdout" in keys:
                    print(f"        {_verify_detail(old['stdout'], new['stdout'])}")
            elif old["exit"] != b"0":
                print(f"same    {name} (both exit {old['exit'].decode()})")
    print(f"{len(configs) - len(differing)} of {len(configs)} configurations identical")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
