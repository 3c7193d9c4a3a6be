"""Dense statevector simulation kernel.

Conventions used throughout the package:

* qubit 0 is the least-significant bit of the basis-state index;
* bitstrings exchanged with the outside world (inputs and printed output)
  are written most-significant qubit first;
* a register is an ordered list of qubit indices, ``register[k]`` holding
  bit ``k`` (the least-significant bit) of the register integer.

Gates are applied by reshaping the amplitude array into a rank-q tensor and
contracting the gate matrix over the target axes; the full 2^q x 2^q
embedded matrix is never formed.

`_tensor`, `_fix` and `_swapped` own the qubit-to-axis convention (qubit k
on axis q-1-k): `_fix` holds listed qubits at given bits with length-1
slices, so a controlled or collapsed slice keeps every other qubit on its
axis and no caller re-ranks axes; `_swapped` exchanges two qubits' axes.

In-place contract, shared with ``tqsf.evolution``: every kernel mutates
``state.amplitudes`` through views of that tensor and never rebinds it, so
a view of the amplitudes taken before a call sees the call's update.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

MAX_QUBITS = 20
NORM_ATOL = 1e-9
UNITARY_ATOL = 1e-12
PRUNE_TOL = 1e-12

_SQRT2_INV = 1.0 / np.sqrt(2.0)

HADAMARD = np.array([[1, 1], [1, -1]], dtype=np.complex128) * _SQRT2_INV
PAULI_X = np.array([[0, 1], [1, 0]], dtype=np.complex128)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=np.complex128)
SWAP = np.array(
    [[1, 0, 0, 0], [0, 0, 1, 0], [0, 1, 0, 0], [0, 0, 0, 1]],
    dtype=np.complex128,
)


class StateVector:
    """Normalized complex amplitudes over 2^num_qubits basis states."""

    __slots__ = ("amplitudes", "num_qubits")

    def __init__(self, amplitudes, *, copy: bool = True):
        amps = np.array(amplitudes, dtype=np.complex128, copy=copy)
        if amps.ndim != 1 or amps.size == 0 or amps.size & (amps.size - 1):
            raise ValueError("amplitude array length must be a power of two")
        q = int(amps.size).bit_length() - 1
        if q > MAX_QUBITS:
            raise CapacityError(f"{q} qubits exceeds the {MAX_QUBITS}-qubit exact-mode limit")
        norm = np.linalg.norm(amps)
        if not np.isfinite(norm):
            raise ValueError(f"state norm {norm!r} is not finite")
        if abs(norm - 1.0) > NORM_ATOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_ATOL}")
        self.amplitudes = amps
        self.num_qubits = q

    def copy(self) -> "StateVector":
        return StateVector(self.amplitudes, copy=True)

    def probabilities(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def __repr__(self) -> str:
        return f"StateVector(num_qubits={self.num_qubits})"


def _check_unitary(matrix: np.ndarray) -> None:
    """Raise ValueError unless `matrix` is unitary to UNITARY_ATOL."""
    dev = np.max(np.abs(matrix.conj().T @ matrix - np.eye(len(matrix))))
    if dev > UNITARY_ATOL:
        raise ValueError(f"matrix is not unitary (deviation {dev:.3e})")


@dataclass(frozen=True)
class Gate:
    """Unitary matrix acting on an ordered list of target qubits.

    ``targets[i]`` carries bit i (the least-significant bit) of the gate
    matrix index, mirroring the global qubit-0-is-LSB convention.
    """

    matrix: np.ndarray
    targets: tuple[int, ...]

    def __init__(self, matrix, targets):
        matrix = np.asarray(matrix, dtype=np.complex128)
        targets = tuple(int(t) for t in targets)
        k = len(targets)
        if matrix.shape != (1 << k, 1 << k):
            raise ValueError(f"matrix shape {matrix.shape} does not match {k} targets")
        if len(set(targets)) != k:
            raise ValueError("gate targets must be distinct")
        _check_unitary(matrix)
        object.__setattr__(self, "matrix", matrix)
        object.__setattr__(self, "targets", targets)


def format_bits(value: int, width: int) -> str:
    """Render an integer as a width-bit string, most-significant bit first."""
    return format(value, f"0{width}b")


def new_basis_state(num_qubits: int, bitstring: str) -> StateVector:
    """Computational basis state from a bitstring (most-significant qubit first)."""
    if num_qubits < 1:
        raise ValueError("num_qubits must be >= 1")
    if num_qubits > MAX_QUBITS:
        raise CapacityError(
            f"{num_qubits} qubits exceeds the {MAX_QUBITS}-qubit exact-mode limit"
        )
    if len(bitstring) != num_qubits or any(c not in "01" for c in bitstring):
        raise ValueError(f"bitstring {bitstring!r} does not describe {num_qubits} qubits")
    index = int(bitstring, 2)
    amps = np.zeros(1 << num_qubits, dtype=np.complex128)
    amps[index] = 1.0
    return StateVector(amps, copy=False)


def _check_qubits(state: StateVector, qubits) -> None:
    for q in qubits:
        if not 0 <= q < state.num_qubits:
            raise ValueError(f"qubit index {q} out of range for {state.num_qubits} qubits")


def _distinct_qubits(state: StateVector, qubits) -> list[int]:
    """`qubits` as a list of ints, checked to be integers, distinct and in range."""
    qubits = [operator.index(q) for q in qubits]
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"qubits {qubits} must be distinct")
    _check_qubits(state, qubits)
    return qubits


def _tensor(amps: np.ndarray, num_qubits: int) -> np.ndarray:
    """The flat amplitudes as a (2,)*q view; qubit k sits on axis q-1-k."""
    return amps.reshape((2,) * num_qubits)


_BIT = (slice(0, 1), slice(1, 2))  # length-1 slices, built once: kernels call _fix per block


def _fix(t: np.ndarray, fixed) -> np.ndarray:
    """View of the qubit tensor `t` with each qubit of `fixed` ({qubit: bit}) held at its bit.

    A fixed qubit keeps its axis with length 1, so the view has t's rank and
    every qubit stays on axis ndim-1-qubit. Qubits are not range-checked.
    """
    sel = [slice(None)] * t.ndim
    for qubit, bit in fixed.items():
        sel[-1 - qubit] = _BIT[bit]  # axis ndim-1-qubit, counted from the end
    return t[tuple(sel)]


def _swapped(t: np.ndarray, i: int, j: int) -> np.ndarray:
    """View of the qubit tensor `t` with qubits i and j exchanged: SWAP_ij t, no copy."""
    return t.swapaxes(-1 - i, -1 - j)


def _apply_matrix(amps, num_qubits, matrix, targets, controls=(), control_values=()):
    """Contract `matrix` over the target axes, optionally on a control slice.

    `matrix` is either a dense 2^k x 2^k array or a block-diagonal operator
    given as a tuple of (indices, block) pairs, where `block` acts on the
    rows `indices` of the target index and the listed index sets cover it
    disjointly (a real block: one GEMM on the rows' float64 view). In place on `amps`.
    """
    k = len(targets)
    sub = _fix(_tensor(amps, num_qubits), dict(zip(controls, control_values)))
    # axis of target bit i must land at front position k-1-i so that the
    # flattened leading index reads the targets little-endian
    src = [num_qubits - 1 - qb for qb in reversed(targets)]
    moved = np.moveaxis(sub, src, range(k))
    if isinstance(matrix, tuple):
        out = moved.reshape(1 << k, -1)
        for idx, block in matrix:
            if np.isrealobj(block):  # fancy indexing reads a contiguous copy first
                out[idx] = (block @ out[idx].view(np.float64)).view(np.complex128)
            else:
                out[idx] = block @ out[idx]
    else:
        out = matrix @ moved.reshape(1 << k, -1)
    sub[...] = np.moveaxis(out.reshape(moved.shape), range(k), src)


def _hadamard_wall(state: StateVector, qubits) -> StateVector:
    """Hadamard on each of `qubits`, which must all read |0>; in place.

    The populated slice (every listed qubit at 0) is scaled by HADAMARD[0, 0]
    once per qubit, then copied into the q=1 halves one qubit at a time: about
    one pass over the state, with the bits of `apply_gate` qubit by qubit."""
    _check_qubits(state, qubits)
    t = _tensor(state.amplitudes, state.num_qubits)
    fixed = dict.fromkeys(qubits, 0)
    populated = _fix(t, fixed)
    for _ in fixed:
        populated *= HADAMARD[0, 0]
    for q in list(fixed):
        del fixed[q]
        _fix(t, {**fixed, q: 1})[...] = _fix(t, {**fixed, q: 0})
    return state


def apply_gate(state: StateVector, gate: Gate) -> StateVector:
    """Apply `gate` to `state` in place; returns the same object."""
    _check_qubits(state, gate.targets)
    _apply_matrix(state.amplitudes, state.num_qubits, gate.matrix, gate.targets)
    return state


def apply_controlled(
    state: StateVector,
    control_qubits,
    control_values,
    gate: Gate,
) -> StateVector:
    """Apply `gate` on the subspace where every control qubit matches its value.

    Control values 0 select open controls, 1 filled controls.
    """
    controls = tuple(int(c) for c in control_qubits)
    values = tuple(int(v) for v in control_values)
    if len(controls) != len(values):
        raise ValueError("control_qubits and control_values must have equal length")
    if any(v not in (0, 1) for v in values):
        raise ValueError("control values must be 0 or 1")
    if len(set(controls)) != len(controls):
        raise ValueError("control qubits must be distinct")
    if set(controls) & set(gate.targets):
        raise ValueError("control qubits must be disjoint from gate targets")
    _check_qubits(state, controls)
    _check_qubits(state, gate.targets)
    _apply_matrix(
        state.amplitudes, state.num_qubits, gate.matrix, gate.targets, controls, values
    )
    return state


def _marginal(state: StateVector, qubits) -> np.ndarray:
    """Probability vector over the listed qubits, qubits[0] = LSB of the index."""
    q = state.num_qubits
    p = _tensor(state.probabilities(), q)
    keep = [q - 1 - qb for qb in reversed(qubits)]  # qubits[-1] leads the index
    other = tuple(ax for ax in range(q) if ax not in keep)
    if other:
        p = p.sum(axis=other, keepdims=True)  # summed qubits keep length-1 axes
    return np.transpose(p, keep + list(other)).reshape(-1)


def outcome_distribution(state: StateVector, qubits) -> dict[str, float]:
    """Exact Born distribution over the listed qubits.

    Keys are bitstrings, most-significant qubit (qubits[-1]) first; entries
    with probability <= 1e-12 are pruned.
    """
    qubits = _distinct_qubits(state, qubits)
    p = _marginal(state, qubits)
    width = len(qubits)
    return {
        format_bits(i, width): float(p[i]) for i in np.flatnonzero(p > PRUNE_TOL)
    }


def sample_counts(state: StateVector, qubits, shots: int, seed: int) -> dict[str, int]:
    """Sample `shots` independent measurements of `qubits` (state untouched)."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    qubits = _distinct_qubits(state, qubits)
    return _sample_marginal(_marginal(state, qubits), shots, seed)


def _sample_marginal(probs: np.ndarray, shots: int, seed: int) -> dict[str, int]:
    """Counts of `shots` seeded draws from a `_marginal` vector, keyed by readout bitstring."""
    p = probs / probs.sum()
    rng = np.random.default_rng(seed)
    counts = rng.multinomial(shots, p)
    width = probs.size.bit_length() - 1
    return {
        format_bits(i, width): int(counts[i]) for i in np.flatnonzero(counts)
    }
