"""Phase unitaries U = exp(2*pi*i * alpha * O) for the spin operators.

Exact mode synthesizes the unitary from the operator's spectral projectors;
trotter mode splits the transposition sum into per-pair SWAP rotations using

    exp(i*a*P_ij) = cos(a) I + i sin(a) P_ij,

applied first order in a fixed lexicographic pair order.  Controlled-power
applications — the building blocks of phase estimation — scale alpha rather
than repeating the circuit.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .spin import (
    HammingWeightOperator,
    TranspositionSum,
    build_coupling_sum,
    build_prefix_spin_squared,
    build_total_spin_squared,
    _step_sum,
    eigen_oracle,
)
from .statevector import Gate, StateVector, _apply_matrix


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


@lru_cache(maxsize=None)
def _dense_unitary(op: TranspositionSum, phase_scale: float) -> tuple[np.ndarray, tuple[int, ...]]:
    """exp(2*pi*i * phase_scale * op) on the support qubits."""
    dense, support = op.dense_on_support()
    if not support:
        val = np.exp(2j * np.pi * phase_scale * dense[0, 0])
        return np.array([[val]]), ()
    # spectral synthesis keeps the result exactly unitary up to eigh error
    reduced = _support_operator(op)
    proj = eigen_oracle(reduced)
    out = np.zeros_like(dense)
    for lam, p in zip(proj.eigenvalues, proj.projectors):
        out += np.exp(2j * np.pi * phase_scale * lam) * p
    return out, support


@lru_cache(maxsize=None)
def _support_operator(op: TranspositionSum) -> TranspositionSum:
    support = op.support
    rank = {q: r for r, q in enumerate(support)}
    return TranspositionSum(
        num_qubits=len(support),
        identity_coefficient=op.identity_coefficient,
        pairs=tuple((rank[i], rank[j]) for i, j in op.pairs),
        pair_coefficients=op.pair_coefficients,
        denominator=op.denominator,
    )


def _hamming_phases(state: StateVector, op: HammingWeightOperator, phase_scale: float) -> np.ndarray:
    # the weight depends only on the low (system) bits of the joint index
    phases = np.exp(2j * np.pi * phase_scale * op.diagonal())
    return np.tile(phases, state.amplitudes.size >> op.num_qubits)


def apply_exact(spec: PhaseUnitary, state: StateVector, power: int = 1) -> StateVector:
    """Apply U^power using the operator's spectral decomposition; in place."""
    scale = spec.alpha * power
    op = spec.operator
    if isinstance(op, HammingWeightOperator):
        state.amplitudes *= _hamming_phases(state, op, scale)
        return state
    matrix, support = _dense_unitary(op, scale)
    if not support:
        state.amplitudes *= matrix[0, 0]
        return state
    _apply_matrix(state.amplitudes, state.num_qubits, matrix, support)
    return state


def apply_swap_rotation(state: StateVector, alpha: float, i: int, j: int) -> StateVector:
    """state <- cos(alpha) state + i sin(alpha) SWAP_ij state; in place."""
    if i == j:
        raise ValueError("swap rotation requires two distinct qubits")
    amps = state.amplitudes
    idx = np.arange(amps.size)
    partner = amps[idx ^ ((1 << i) | (1 << j))]
    same = ((idx >> i) & 1) == ((idx >> j) & 1)
    swapped = np.where(same, amps, partner)
    state.amplitudes = np.cos(alpha) * amps + 1j * np.sin(alpha) * swapped
    return state


def _controlled_swap_rotation(state, alpha, i, j, control):
    amps = state.amplitudes
    idx = np.arange(amps.size)
    on = ((idx >> control) & 1) == 1
    partner = amps[idx ^ ((1 << i) | (1 << j))]
    same = ((idx >> i) & 1) == ((idx >> j) & 1)
    swapped = np.where(same, amps, partner)
    rotated = np.cos(alpha) * amps + 1j * np.sin(alpha) * swapped
    state.amplitudes = np.where(on, rotated, amps)
    return state


def apply_trotter(spec: PhaseUnitary, state: StateVector, power: int = 1) -> StateVector:
    """First-order Trotter application of U^power; in place.

    The identity part commutes with everything and is applied as one exact
    phase; each of `trotter_steps` sweeps applies the per-pair rotations in
    lexicographic (i, j) order.
    """
    op = spec.operator
    scale = spec.alpha * power
    if isinstance(op, HammingWeightOperator):
        # diagonal: a product of single-qubit phases, nothing to split
        state.amplitudes *= _hamming_phases(state, op, scale)
        return state
    steps = spec.trotter_steps
    if steps < 1:
        raise ValueError("trotter_steps must be >= 1")
    if op.identity_coefficient:
        state.amplitudes *= np.exp(
            2j * np.pi * scale * op.identity_coefficient / op.denominator
        )
    order = sorted(zip(op.pairs, op.pair_coefficients))
    for _ in range(steps):
        for (i, j), c in order:
            apply_swap_rotation(state, 2 * np.pi * scale * c / (op.denominator * steps), i, j)
    return state


def apply_phase_unitary(spec: PhaseUnitary, state: StateVector, power: int = 1) -> StateVector:
    if spec.mode == "trotter":
        return apply_trotter(spec, state, power)
    return apply_exact(spec, state, power)


def apply_controlled_phase_unitary(
    spec: PhaseUnitary, state: StateVector, control: int, power: int = 1
) -> StateVector:
    """Apply U^power on the branch where `control` reads 1; in place."""
    op = spec.operator
    scale = spec.alpha * power
    if isinstance(op, HammingWeightOperator):
        if control < op.num_qubits:
            raise ValueError("control qubit overlaps the operator's qubits")
        idx = np.arange(state.amplitudes.size, dtype=np.uint64)
        on = ((idx >> np.uint64(control)) & np.uint64(1)).astype(bool)
        phases = _hamming_phases(state, op, scale)
        state.amplitudes = np.where(on, state.amplitudes * phases, state.amplitudes)
        return state
    if control in op.support:
        raise ValueError("control qubit overlaps the operator's qubits")
    if spec.mode == "trotter":
        steps = spec.trotter_steps
        if op.identity_coefficient:
            phase = np.exp(2j * np.pi * scale * op.identity_coefficient / op.denominator)
            idx = np.arange(state.amplitudes.size)
            on = ((idx >> control) & 1) == 1
            state.amplitudes = np.where(on, state.amplitudes * phase, state.amplitudes)
        order = sorted(zip(op.pairs, op.pair_coefficients))
        for _ in range(steps):
            for (i, j), c in order:
                _controlled_swap_rotation(
                    state, 2 * np.pi * scale * c / (op.denominator * steps), i, j, control
                )
        return state
    matrix, support = _dense_unitary(op, scale)
    if not support:
        idx = np.arange(state.amplitudes.size)
        on = ((idx >> control) & 1) == 1
        state.amplitudes = np.where(on, state.amplitudes * matrix[0, 0], state.amplitudes)
        return state
    _apply_matrix(state.amplitudes, state.num_qubits, matrix, support, (control,), (1,))
    return state


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
    shifted = TranspositionSum(
        num_qubits=op.num_qubits,
        identity_coefficient=op.identity_coefficient - 0.75,
        pairs=op.pairs,
        pair_coefficients=op.pair_coefficients,
        denominator=op.denominator,
    )
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
    op = build_coupling_sum(j, n)
    shifted = TranspositionSum(
        num_qubits=n,
        identity_coefficient=1.0,
        pairs=op.pairs,
        pair_coefficients=op.pair_coefficients,
    )
    return PhaseUnitary(shifted, alpha=0.5**register_size, mode=mode,
                        trotter_steps=trotter_steps)


def step_phase_unitary(j: int, n: int, two_S_prev: int) -> PhaseUnitary:
    """exp(i*pi*G) whose Hadamard test reads the spin increase/decrease bit.

    two_S_prev = 0 is accepted here: on a zero-spin prefix the operator is
    the constant 1, so the test deterministically reports an increase —
    exactly the behaviour the coherent (deferred) circuit needs.
    """
    if not 2 <= j <= n:
        raise ValueError(f"prefix length {j} must satisfy 2 <= j <= n ({n})")
    if two_S_prev < 0 or two_S_prev > j - 1 or (two_S_prev - (j - 1)) % 2:
        raise ValueError(f"two_S_prev={two_S_prev} is not a valid spin of {j - 1} qubits")
    return PhaseUnitary(_step_sum(j, n, two_S_prev), alpha=0.5)


def controlled_step_gate(j: int, n: int, two_S_prev: int) -> Gate:
    """Dense gate for the step unitary, for use in multi-controlled circuits."""
    spec = step_phase_unitary(j, n, two_S_prev)
    matrix, support = _dense_unitary(spec.operator, spec.alpha)
    return Gate(matrix, support)
