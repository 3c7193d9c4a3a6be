"""Command-line front end: run experiments, demos, and the verification suite.

Subcommands:

* ``run``      — execute a filter method on a prepared state and write the
                 outcome table (JSON, optional CSV histogram and SVG chart).
* ``rng-demo`` — sample x = k/n from the 1-count distribution of the
                 Hadamard state (binomial random numbers on a uniform mesh).
* ``verify``   — run the oracle cross-check suite and report every property.
* ``layout``   — print the register sizing for a given n and method.

Exit codes: 0 success, 1 verification failure, 2 invalid configuration,
3 capacity exceeded.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .errors import CapacityError
from .filtering import (
    DEFAULT_SEED,
    DEFAULT_TROTTER_STEPS,
    METHODS,
    FilterOutcome,
    RegisterLayout,
    layout_for,
    method_c_counts,
    register_bits,
    run_filter,
)
from .spin import SpinLabel
from .statevector import MAX_QUBITS, StateVector, _sample_marginal
from .states import load_amplitudes, preset_state
from .verification import run_verification

BIT_ORDER_NOTE = (
    "bitstrings are most-significant qubit first; registers are listed in "
    "circuit order (z register first, then spin/path registers by rising j)"
)


@dataclass
class ExperimentConfig:
    n: int
    initial_state: str
    method: str
    mode: str = "exact"
    trotter_steps: int = DEFAULT_TROTTER_STEPS
    shots: int = 0
    seed: int = DEFAULT_SEED
    state_file: str | None = None

    def validate(self) -> None:
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.method not in METHODS:
            raise ValueError(f"method must be one of {METHODS}")
        if self.mode not in ("exact", "trotter"):
            raise ValueError("mode must be 'exact' or 'trotter'")
        if self.mode == "trotter" and self.trotter_steps < 1:
            raise ValueError("trotter mode requires --trotter-steps >= 1")
        if self.shots < 0:
            raise ValueError("shots must be >= 0")
        if self.shots == 0 and self.mode != "exact":
            raise ValueError("shots = 0 (exact enumeration only) requires mode 'exact'")
        if self.method == "c" and self.shots < 1:
            raise ValueError("method 'c' is sampled; it requires shots >= 1")
        if self.method in ("c", "c-deferred") and self.mode != "exact":
            raise ValueError(f"method {self.method!r} supports exact mode only")

    def build_state(self) -> StateVector:
        if self.state_file is not None:
            return load_amplitudes(self.state_file, self.n)
        return preset_state(self.initial_state, self.n)


def _label_json(outcome: FilterOutcome) -> dict:
    label = outcome.label
    if label is None:
        return {"kind": "undecoded"}
    if isinstance(label, SpinLabel):
        return {
            "kind": "spin",
            "two_S": label.two_S,
            "two_M": label.two_M,
            "S": label.S,
            "M": label.M,
        }
    out = {
        "kind": "path",
        "two_S_sequence": list(label.two_S_sequence),
        "step_bits": label.bits_string(),
        "step_bits_reversed": label.reversed_bits_string(),
        "two_S": label.two_S_final,
    }
    if outcome.two_M is not None:
        out["two_M"] = outcome.two_M
    return out


def _label_text(outcome: FilterOutcome) -> str:
    label = outcome.label
    if label is None:
        return "undecoded"
    if isinstance(label, SpinLabel):
        return f"S={label.S:g} M={label.M:g}"
    text = f"path={label.bits_string()} S={label.two_S_final / 2:g}"
    if outcome.two_M is not None:
        text += f" M={outcome.two_M / 2:g}"
    return text


def _layout_json(layout: RegisterLayout) -> dict:
    return {
        "system": list(layout.system),
        "registers": [
            {"name": name, "qubits": list(qubits), "size": len(qubits)}
            for name, qubits in layout.registers
        ],
        "total_qubits": layout.total_qubits,
        "bit_order": BIT_ORDER_NOTE,
    }


def _sorted_outcomes(outcomes: list[FilterOutcome], layout: RegisterLayout) -> list[FilterOutcome]:
    names = [name for name, _ in layout.registers]

    def key(o: FilterOutcome):
        return tuple(int(o.raw_bits[name], 2) if name in o.raw_bits else 0 for name in names)

    return sorted(outcomes, key=key)


def run_experiment(config: ExperimentConfig) -> dict:
    """Execute the configured method and assemble the result document."""
    config.validate()
    state = config.build_state()
    if state.num_qubits != config.n:
        raise ValueError("initial state size does not match n")

    if config.method == "c":  # inherently sampled, one shot at a time
        layout = layout_for(config.n, "c")
        outcomes, sampled = _run_sequential(state, config)
    else:
        _, layout, outcomes, probs = run_filter(state, config.n, config.method, config.mode,
                                                config.trotter_steps)
        counts = _sample_marginal(probs, config.shots, config.seed) if config.shots else {}
        sampled = {_row_key(register_bits(int(bits, 2), layout)): c for bits, c in counts.items()}

    rows = []
    for o in _sorted_outcomes(outcomes, layout):
        row = {
            "label": _label_json(o),
            "label_text": _label_text(o),
            "raw_bits": dict(sorted(o.raw_bits.items())),
            "probability": o.probability,
        }
        if config.shots:
            row["count"] = sampled.get(_row_key(o.raw_bits), 0)
        rows.append(row)

    return {
        "config": {
            "n": config.n,
            "initial_state": config.initial_state,
            "method": config.method,
            "mode": config.mode,
            "trotter_steps": config.trotter_steps if config.mode == "trotter" else None,
            "shots": config.shots,
            "seed": config.seed,
        },
        "layout": _layout_json(layout),
        "outcomes": rows,
        "metadata": {
            "tool": "tqsf",
            "version": __version__,
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "seed": config.seed,
        },
    }


def _row_key(raw_bits: dict[str, str]) -> tuple:
    return tuple(sorted(raw_bits.items()))


def _run_sequential(state, config: ExperimentConfig):
    """Method c: outcome rows from the per-shot sequential filter's counts."""
    counts = method_c_counts(state, config.n, config.shots, config.seed)
    outcomes = []
    sampled = {}
    for path, count in counts.items():
        raw = {
            f"step{j + 2}": str(bit) for j, bit in enumerate(path.step_bits)
        }
        outcomes.append(
            FilterOutcome(
                label=path,
                probability=count / config.shots,
                post_state=None,
                raw_bits=raw,
            )
        )
        sampled[_row_key(raw)] = count
    return outcomes, sampled


def write_json(document: dict, path: str) -> None:
    with open(path, "w") as fh:  # one write: json.dump would write piece by piece
        fh.write(json.dumps(document, indent=2, sort_keys=True) + "\n")


def write_csv(document: dict, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["label", "probability", "count"])
        for row in document["outcomes"]:
            writer.writerow([row["label_text"], row["probability"], row.get("count", "")])


def write_svg(document: dict, path: str) -> None:
    """Minimal bar chart of outcome probabilities; no plotting dependency."""
    rows = document["outcomes"]
    if not rows:
        raise ValueError("no outcomes to plot")
    width, height, margin = 800, 360, 60
    bar_zone = width - 2 * margin
    bar_w = bar_zone / len(rows)
    peak = max(row["probability"] for row in rows) or 1.0
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{margin}" y1="{height - margin}" x2="{width - margin}" '
        f'y2="{height - margin}" stroke="black"/>',
    ]
    for i, row in enumerate(rows):
        frac = row["probability"] / peak
        bar_h = frac * (height - 2 * margin)
        x = margin + i * bar_w + 0.1 * bar_w
        y = height - margin - bar_h
        parts.append(
            f'<rect x="{x:.1f}" y="{y:.1f}" width="{0.8 * bar_w:.1f}" '
            f'height="{bar_h:.1f}" fill="#4878a8"/>'
        )
        parts.append(
            f'<text x="{margin + (i + 0.5) * bar_w:.1f}" y="{height - margin + 14}" '
            f'font-size="9" text-anchor="end" '
            f'transform="rotate(-45 {margin + (i + 0.5) * bar_w:.1f} {height - margin + 14})">'
            f'{row["label_text"]}</text>'
        )
        parts.append(
            f'<text x="{margin + (i + 0.5) * bar_w:.1f}" y="{y - 4:.1f}" font-size="9" '
            f'text-anchor="middle">{row["probability"]:.4f}</text>'
        )
    parts.append("</svg>")
    with open(path, "w") as fh:
        fh.write("\n".join(parts) + "\n")


def rng_demo(n: int, shots: int, seed: int) -> dict:
    """Sample x = k/n from the 1-count readout of the Hadamard state.

    The 1-count register of an exact phase estimation reads the Hamming
    weight, whose Born distribution on the Hadamard state is binomial:
    p_k = C(n, k) / 2^n, an exact binary fraction for n up to the
    20-qubit capacity.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if shots < 1:
        raise ValueError("shots must be >= 1")
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit exact-mode limit")
    p_k = [math.comb(n, k) / 2**n for k in range(n + 1)]
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p_k)
    return {
        "n": n,
        "shots": shots,
        "seed": seed,
        "values": [k / n for k in range(n + 1)],
        "probabilities": [float(p) for p in p_k],
        "counts": [int(c) for c in counts],
    }


def write_rng_csv(result: dict, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "probability", "count"])
        for x, p, c in zip(result["values"], result["probabilities"], result["counts"]):
            writer.writerow([x, p, c])


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tqsf", description="Total-spin filtering on a statevector simulator"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run a filter method and write results")
    run_p.add_argument("--n", type=int, required=True, help="number of system qubits")
    run_p.add_argument(
        "--state",
        default="hadamard",
        help="initial state: 'hadamard', 'hadamard-x13', a bitstring, or @file of amplitudes",
    )
    run_p.add_argument("--method", required=True, choices=METHODS)
    run_p.add_argument("--mode", default="exact", choices=("exact", "trotter"))
    run_p.add_argument("--trotter-steps", type=int, default=DEFAULT_TROTTER_STEPS)
    run_p.add_argument("--shots", type=int, default=0, help="0 = exact enumeration only")
    run_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    run_p.add_argument("--out", required=True, help="JSON output path")
    run_p.add_argument("--csv", help="optional CSV histogram path")
    run_p.add_argument("--plot", help="optional SVG bar chart path")

    demo_p = sub.add_parser("rng-demo", help="binomial random numbers x = k/n")
    demo_p.add_argument("--n", type=int, required=True)
    demo_p.add_argument("--shots", type=int, required=True)
    demo_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    demo_p.add_argument("--out", required=True, help="CSV output path")

    verify_p = sub.add_parser("verify", help="run the oracle cross-check suite")
    verify_p.add_argument("--n-max", type=int, default=4)
    verify_p.add_argument("--states-per-n", type=int, default=10)
    verify_p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    verify_p.add_argument("--out", help="optional JSON report path")

    layout_p = sub.add_parser("layout", help="print register sizing for n and method")
    layout_p.add_argument("--n", type=int, required=True)
    layout_p.add_argument("--method", required=True, choices=METHODS)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            state_file = None
            initial = args.state
            if initial.startswith("@"):
                state_file = initial[1:]
                initial = f"file:{state_file}"
            config = ExperimentConfig(
                n=args.n,
                initial_state=initial,
                method=args.method,
                mode=args.mode,
                trotter_steps=args.trotter_steps,
                shots=args.shots,
                seed=args.seed,
                state_file=state_file,
            )
            document = run_experiment(config)
            write_json(document, args.out)
            if args.csv:
                write_csv(document, args.csv)
            if args.plot:
                write_svg(document, args.plot)
            print(f"wrote {args.out} ({len(document['outcomes'])} outcomes)")
            return 0
        if args.command == "rng-demo":
            result = rng_demo(args.n, args.shots, args.seed)
            write_rng_csv(result, args.out)
            print(f"wrote {args.out} ({args.shots} samples over {args.n + 1} mesh points)")
            return 0
        if args.command == "verify":
            report = run_verification(args.n_max, args.states_per_n, args.seed)
            if args.out:
                write_json(report, args.out)
            for check in report["checks"]:
                status = "PASS" if check["passed"] else "FAIL"
                print(f"[{status}] {check['name']}: {check['detail']}")
            if not report["passed"]:
                failing = [c["name"] for c in report["checks"] if not c["passed"]]
                print(f"verification failed: {', '.join(failing)}", file=sys.stderr)
                return 1
            print("all checks passed")
            return 0
        if args.command == "layout":
            layout = layout_for(args.n, args.method)
            print(json.dumps(_layout_json(layout), indent=2, sort_keys=True))
            return 0
        raise ValueError(f"unknown command {args.command!r}")
    except CapacityError as exc:
        print(f"capacity error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
