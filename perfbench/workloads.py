"""Workload definitions and the seeded inputs of every request.

A workload is a round-robin of request kinds. Request ``i`` of a run has
kind ``kinds[i % len(kinds)]``; the input state and ``--seed`` of a ``run``
request depend only on the workload seed and ``i``, so the same seed gives
the same inputs, and no request is skipped or reordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Kind:
    """One request kind: tqsf CLI arguments plus the size of its input state."""

    name: str
    args: tuple[str, ...]
    n: int | None  # qubits of the random @file input state; None for `verify`


def _run(name: str, n: int, *args: str) -> Kind:
    return Kind(name, ("run", "--n", str(n), *args), n)


WORKLOADS: dict[str, tuple[Kind, ...]] = {
    # The headline use: (S, M) sectors at the largest n the 20-qubit cap
    # allows, and path resolution; cold time is spectral synthesis.
    "sectors": (
        _run("a-n10", 10, "--method", "a", "--shots", "100000"),
        _run("b-hj-n5", 5, "--method", "b-hj", "--shots", "100000"),
    ),
    # Controlled SWAP rotations and no spectral synthesis. b-hj cannot run
    # in trotter mode (known defect, see NOTES.md), so b-s2j stands in.
    "trotter": (
        _run("b-s2j-n4-trotter", 4, "--method", "b-s2j", "--mode", "trotter",
             "--trotter-steps", "16", "--shots", "10000"),
        _run("a-n8-trotter", 8, "--method", "a", "--mode", "trotter",
             "--trotter-steps", "16", "--shots", "10000"),
    ),
    # The per-shot sampler loop and history-controlled gates; cold time and
    # memory are the unbounded dense step-gate caches. Method c takes 2e4
    # shots, not 1e5, so that a run holds enough requests of each kind for a
    # steady median.
    "sequential": (
        _run("c-deferred-n9", 9, "--method", "c-deferred", "--shots", "100000"),
        _run("c-n10", 10, "--method", "c", "--shots", "20000"),
    ),
    # Many tiny circuits (n = 2..6): per-call overhead and the dense oracle.
    "verify": (Kind("verify-n6", ("verify", "--n-max", "6"), None),),
}


def kind_of(workload: str, i: int) -> Kind:
    kinds = WORKLOADS[workload]
    return kinds[i % len(kinds)]


def request(workload: str, seed: int, i: int, workdir: Path) -> tuple[Kind, list[str], dict]:
    """Write the inputs of request `i` and return its kind, CLI argv and files."""
    kind = kind_of(workload, i)
    if kind.n is None:
        # `verify` keeps its default seed: its 4-sigma sampling check fails on
        # correct code for some seeds (NOTES.md, known defect 4).
        return kind, list(kind.args), {}
    rng = np.random.default_rng([seed, i])
    argv = [*kind.args, "--seed", str(int(rng.integers(2**31)))]
    dim = 1 << kind.n
    amps = rng.standard_normal(dim) + 1j * rng.standard_normal(dim)
    amps /= np.linalg.norm(amps)
    files = {
        "state": str(workdir / f"state-{i}.txt"),
        "out": str(workdir / f"out-{i}.json"),
        "csv": str(workdir / f"out-{i}.csv"),
    }
    Path(files["state"]).write_text(
        "".join(f"{re!r} {im!r}\n" for re, im in zip(amps.real.tolist(), amps.imag.tolist()))
    )
    argv += ["--state", "@" + files["state"], "--out", files["out"], "--csv", files["csv"]]
    return kind, argv, files
