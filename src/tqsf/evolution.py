"""Phase unitaries U = exp(2*pi*i * alpha * O) for the spin operators.

Each transposition sum here (S^2, a prefix S^2, a coupling sum) keeps the
1-count, so U is block-diagonal over the weight-k basis states of its
support (U(1) blocks, as in Sandvik, arXiv:1101.3281); the 1-count
operator itself is diagonal, a phase tensor. Each mode applies (indices,
block) pairs in `_apply_matrix` calls, with no 2^m x 2^m matrix (gate
fusion as in Häner & Steiger, SC'17, arXiv:1704.01127). Exact mode applies
V_k diag(exp(2*pi*i * alpha * lambda)) V_k^T: a real GEMM per block into the
cached eigenbasis (`_eigenbasis`, lambda exact), the phase tensor and a GEMM
back; `filtering.run_qpe` rotates once for all its powers. Trotter mode
diagonalises nothing and builds one sweep of the per-pair SWAP rotations

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
    spectrum,
)
from .statevector import (StateVector, _apply_matrix, _check_qubits, _check_unitary,
                          _distinct_qubits, _fix, _tensor)


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
def _eigenbasis(op: TranspositionSum) -> tuple[tuple, np.ndarray]:
    """(indices, V_k) per weight block of `spin.eigen_blocks(op)`, each real V_k checked
    orthogonal once, so V diag(phases) V^T is unitary; and by support index the `spectrum`
    value nearest each eigenvector's `eigh` eigenvalue (ValueError beyond 1e-9)."""
    blocks, exact = eigen_blocks(op), np.array(spectrum(op))
    eigenvalues = np.empty(1 << len(op.support))
    for idx, w, v in blocks:
        _check_unitary(v)
        eigenvalues[idx] = exact[np.abs(w[:, None] - exact).argmin(axis=1)]
        if np.max(np.abs(w - eigenvalues[idx])) > 1e-9:
            raise ValueError(f"eigh eigenvalues {w} stray from the exact spectrum {exact}")
    return tuple((idx, v) for idx, _, v in blocks), eigenvalues


def _rotate(state: StateVector, op, fixed: dict, back: bool = False) -> np.ndarray:
    """Rotate op's support into its eigenbasis (V_k^T), or out (V_k) with `back`, where each qubit
    of `fixed` reads its bit; in place. Returns the eigenvalues as a broadcastable qubit tensor."""
    support = op.support
    if isinstance(op, HammingWeightOperator):  # diagonal already
        eigenvalues = op.diagonal()
    else:
        rotation, eigenvalues = _eigenbasis(op)
        blocks = rotation if back else tuple((idx, v.T) for idx, v in rotation)
        _apply_matrix(state.amplitudes, state.num_qubits, blocks, support,
                      tuple(fixed), tuple(fixed.values()))
    return eigenvalues.reshape([2 if q in support else 1
                                for q in range(max(support, default=-1), -1, -1)])


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

    Exact mode (`spec.mode`), and the diagonal 1-count operator in either
    mode, rotate in, phase and rotate out; trotter mode applies the fused
    powers of `_trotter_blocks`.
    """
    op = spec.operator
    scale = spec.alpha * power
    controls = () if control is None else (control,)
    _distinct_qubits(state, op.support + controls)  # controls off the operator's qubits
    if spec.mode == "trotter" and isinstance(op, TranspositionSum):
        _apply_matrix(state.amplitudes, state.num_qubits, _trotter_blocks(
            op, scale, spec.trotter_steps), op.support, controls, (1,) * len(controls))
        return state
    fixed = dict.fromkeys(controls, 1)
    view = _fix(_tensor(state.amplitudes, state.num_qubits), fixed)
    view *= np.exp(2j * np.pi * scale * _rotate(state, op, fixed))  # a view sees the rotation
    _rotate(state, op, fixed, back=True)
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

