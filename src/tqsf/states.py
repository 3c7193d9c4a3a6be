"""Initial-state construction: named presets, amplitude files, random states."""

from __future__ import annotations

import cmath
import warnings

import numpy as np

from .errors import CapacityError
from .statevector import (
    MAX_QUBITS,
    PAULI_Z,
    Gate,
    StateVector,
    _hadamard_wall,
    apply_gate,
    new_basis_state,
)


def hadamard_state(n: int) -> StateVector:
    """Hadamard wall on |0...0>: the uniform, permutation-symmetric state."""
    return _hadamard_wall(new_basis_state(n, "0" * n), range(n))


def hadamard_x13_state(n: int) -> StateVector:
    """Hadamard wall after X on qubits 1 and 3: mixes all total-spin sectors."""
    if n < 4:
        raise ValueError("the hadamard-x13 preset needs n >= 4")
    state = hadamard_state(n)
    for q in (1, 3):
        apply_gate(state, Gate(PAULI_Z, (q,)))  # H X = Z H, and Z only flips signs
    return state


def preset_state(name: str, n: int) -> StateVector:
    if name == "hadamard":
        return hadamard_state(n)
    if name == "hadamard-x13":
        return hadamard_x13_state(n)
    if set(name) <= {"0", "1"} and name:
        return new_basis_state(n, name)
    raise ValueError(f"unknown state preset {name!r}")


def random_state(n: int, rng: np.random.Generator) -> StateVector:
    """Haar-like random state from complex normal amplitudes."""
    amps = rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n)
    return StateVector(amps / np.linalg.norm(amps), copy=False)


def load_amplitudes(path, n: int) -> StateVector:
    """Read one 'real imag' pair per line; normalizes with a warning if off.

    Raises CapacityError for n above MAX_QUBITS before the file is opened.
    """
    if n > MAX_QUBITS:
        raise CapacityError(f"{n} qubits exceeds the {MAX_QUBITS}-qubit exact-mode limit")
    values = []
    with open(path) as fh:
        for line_no, line in enumerate(fh, 1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{line_no}: expected 'real imag', got {line!r}")
            value = complex(float(parts[0]), float(parts[1]))
            if not cmath.isfinite(value):
                raise ValueError(f"{path}:{line_no}: amplitude {line!r} is not finite")
            values.append(value)
    if len(values) != 1 << n:
        raise ValueError(f"{path}: expected {1 << n} amplitudes for n={n}, got {len(values)}")
    amps = np.array(values, dtype=np.complex128)
    norm = np.linalg.norm(amps)
    if norm == 0:
        raise ValueError(f"{path}: amplitudes are all zero")
    if abs(norm - 1.0) > 1e-6:
        warnings.warn(f"{path}: norm {norm:.8f} deviates from 1; renormalizing")
    return StateVector(amps / norm, copy=False)
