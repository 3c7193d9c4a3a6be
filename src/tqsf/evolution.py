"""Phase unitaries U = exp(2*pi*i * alpha * O) for the spin operators.

Each transposition sum here (S^2, a prefix S^2, a coupling sum) keeps the
1-count, so U is block-diagonal over the weight-k basis states of its
support (U(1) blocks, as in Sandvik, arXiv:1101.3281); the 1-count
operator itself is diagonal, a phase tensor. Both modes cache U per weight
block and apply the (indices, block) pairs in one `_apply_matrix` call,
with no 2^m x 2^m matrix (gate fusion as in Häner & Steiger, SC'17,
arXiv:1704.01127).
Exact mode synthesises each block from the eigenvectors of
`spin.eigen_blocks` (`_exact_blocks`); trotter mode diagonalises nothing
and builds one sweep of the per-pair SWAP rotations

    exp(i*a*P_ij) = cos(a) I + i sin(a) P_ij

in a fixed lexicographic pair order on each block's identity and raises it
to `trotter_steps` (`_trotter_blocks`). Controlled powers, the building
blocks of phase estimation, scale alpha rather than repeat the circuit.
Per-pair rotations act on a state only through `apply_swap_rotation`.

Every kernel mutates ``state.amplitudes`` in place through strided views of
its (2,)*q qubit tensor and never rebinds it; a controlled kernel works on
the `statevector._fix` view where its one control reads 1, which keeps the
control's axis with length 1, so qubit indices mean the same axes in the
plain and the controlled case.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .spin import (
    CACHE_SIZE,
    HammingWeightOperator,
    TranspositionSum,
    _swap_indices,
    _weights,
    build_coupling_sum,
    build_prefix_spin_squared,
    build_total_spin_squared,
    eigen_blocks,
)
from .statevector import StateVector, _apply_matrix, _check_qubits, _check_unitary, _fix, _tensor


@dataclass(frozen=True)
class PhaseUnitary:
    """Specification of U = exp(2*pi*i * alpha * operator)."""

    operator: TranspositionSum | HammingWeightOperator
    alpha: float
    mode: str = "exact"
    trotter_steps: int = 0

    def __post_init__(self):
        if self.mode not in ("exact", "trotter"):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.mode == "trotter" and self.trotter_steps < 1:
            raise ValueError("trotter mode requires trotter_steps >= 1")


@lru_cache(maxsize=CACHE_SIZE)
def _exact_blocks(op: TranspositionSum, scale: float) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """exp(2*pi*i * scale * op) as (indices, v exp(2*pi*i * scale * w) v^T) pairs,
    one per weight block of `spin.eigen_blocks(op)`: the block form `_apply_matrix`
    takes. Each factor is checked unitary once, when it enters the cache."""
    blocks = []
    for idx, w, v in eigen_blocks(op):
        block = (v * np.exp(2j * np.pi * scale * w)) @ v.T
        _check_unitary(block)
        blocks.append((idx, block))
    return tuple(blocks)


@lru_cache(maxsize=CACHE_SIZE)
def _trotter_blocks(op: TranspositionSum, scale: float,
                    steps: int) -> tuple[tuple[np.ndarray, np.ndarray], ...]:
    """First-order trotter form of exp(2*pi*i * scale * op), one weight block at a time.

    Per weight block of the support (`spin._weights`), one sweep of the per-pair
    rotations in lexicographic (i, j) order is built on the block's
    identity and raised to `steps`; the identity part, which commutes with
    everything, enters as one exact phase. Returns (indices, block) pairs
    over the support index, the block form `_apply_matrix` takes.
    """
    rank = {q: r for r, q in enumerate(op.support)}
    angle = 2 * np.pi * scale / (op.denominator * steps)
    order = [(rank[i], rank[j]) for i, j in sorted(op.pairs)]
    phase = np.exp(2j * np.pi * scale * op.identity_coefficient / op.denominator)
    pos = np.empty(1 << len(rank), dtype=np.intp)  # support index -> row in its block
    weights = _weights(len(rank))
    blocks = []
    for idx in (np.flatnonzero(weights == k) for k in range(len(rank) + 1)):
        pos[idx] = np.arange(len(idx))
        sweep = np.eye(len(idx), dtype=np.complex128)
        for ri, rj in order:
            # SWAP maps a row to the one with support bits ri and rj exchanged
            partner = pos[_swap_indices(idx, ri, rj)]
            sweep = np.cos(angle) * sweep + (1j * np.sin(angle)) * sweep[partner]
        blocks.append((idx, phase * np.linalg.matrix_power(sweep, steps)))
    return tuple(blocks)


def _hamming_phases(op: HammingWeightOperator, phase_scale: float) -> np.ndarray:
    """Phases on the system qubits as a (2,)*n tensor; the weight depends only
    on the low (system) bits, so it broadcasts over any qubit tensor's trailing axes."""
    phases = np.exp(2j * np.pi * phase_scale * op.diagonal())
    return phases.reshape((2,) * op.num_qubits)


def _pair_rotate(t: np.ndarray, alpha: float, i: int, j: int) -> None:
    """t <- cos(alpha) t + i sin(alpha) SWAP_ij t on the qubit tensor `t`; in place.

    SWAP fixes the 00/11 blocks of qubits (i, j) and exchanges 01 with 10.
    """
    c, s = np.cos(alpha), 1j * np.sin(alpha)
    for bit in (0, 1):
        same = _fix(t, {i: bit, j: bit})
        same[...] = c * same + s * same
    lo, hi = _fix(t, {i: 0, j: 1}), _fix(t, {i: 1, j: 0})
    lo_old = lo.copy()
    lo[...] = c * lo + s * hi
    hi[...] = c * hi + s * lo_old


def apply_swap_rotation(state: StateVector, alpha: float, i: int, j: int) -> StateVector:
    """state <- cos(alpha) state + i sin(alpha) SWAP_ij state; in place."""
    if i == j:
        raise ValueError("swap rotation requires two distinct qubits")
    _check_qubits(state, (i, j))
    _pair_rotate(_tensor(state.amplitudes, state.num_qubits), alpha, i, j)
    return state


def _evolve(spec: PhaseUnitary, state: StateVector, power: int,
            control: int | None = None) -> StateVector:
    """U^power on the branch where `control` reads 1 (everywhere without one); in place.

    Exact mode (`spec.mode`) fetches the cached spectral factors of
    `_exact_blocks`, trotter mode the fused powers of `_trotter_blocks`; both
    go through one `_apply_matrix` call on the control slice.
    """
    op = spec.operator
    scale = spec.alpha * power
    qubits = op.support
    controls = () if control is None else (control,)
    if control in qubits:
        raise ValueError("the control qubit must be off the operator's qubits")
    _check_qubits(state, qubits + controls)
    view = _fix(_tensor(state.amplitudes, state.num_qubits), dict.fromkeys(controls, 1))
    if isinstance(op, HammingWeightOperator):
        # diagonal in either mode: a product of single-qubit phases, nothing to split
        view *= _hamming_phases(op, scale)
        return state
    if spec.mode == "trotter":
        blocks = _trotter_blocks(op, scale, spec.trotter_steps)
    else:
        blocks = _exact_blocks(op, scale)
    _apply_matrix(state.amplitudes, state.num_qubits, blocks, qubits, controls,
                  (1,) * len(controls))
    return state


def apply_controlled_phase_unitary(
    spec: PhaseUnitary, state: StateVector, control: int, power: int = 1
) -> StateVector:
    """Apply U^power on the branch where `control` reads 1; in place."""
    return _evolve(spec, state, power, control)


def z_phase_unitary(n: int, register_size: int) -> PhaseUnitary:
    """exp(2*pi*i * N_1 / 2^r): reads the 1-count into an r-bit register."""
    return PhaseUnitary(HammingWeightOperator(n), alpha=0.5**register_size)


def _spin_phase(op: TranspositionSum, num_spins: int, register_size: int,
                mode: str, trotter_steps: int) -> PhaseUnitary:
    if num_spins % 2 == 0:
        # even: phases S(S+1)/2^{r+1}
        return PhaseUnitary(op, alpha=0.5 ** (register_size + 1), mode=mode,
                            trotter_steps=trotter_steps)
    # odd: shift the spectrum by -3/4 so the smallest phase is exactly 0
    shifted = replace(op, identity_coefficient=op.identity_coefficient - 0.75)
    return PhaseUnitary(shifted, alpha=0.5**register_size, mode=mode,
                        trotter_steps=trotter_steps)


def total_spin_phase_unitary(n: int, register_size: int, mode: str = "exact",
                             trotter_steps: int = 0) -> PhaseUnitary:
    return _spin_phase(build_total_spin_squared(n), n, register_size, mode, trotter_steps)


def prefix_spin_phase_unitary(j: int, n: int, register_size: int, mode: str = "exact",
                              trotter_steps: int = 0) -> PhaseUnitary:
    return _spin_phase(build_prefix_spin_squared(j, n), j, register_size, mode, trotter_steps)


def coupling_phase_unitary(j: int, n: int, register_size: int, mode: str = "exact",
                           trotter_steps: int = 0) -> PhaseUnitary:
    """exp(2*pi*i * (H+1) / 2^r) for the pairwise coupling sum of step j."""
    shifted = replace(build_coupling_sum(j, n), identity_coefficient=1.0)
    return PhaseUnitary(shifted, alpha=0.5**register_size, mode=mode,
                        trotter_steps=trotter_steps)

