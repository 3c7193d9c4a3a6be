import numpy as np
import pytest

from tqsf.states import (
    hadamard_state,
    hadamard_x13_state,
    load_amplitudes,
    preset_state,
    random_state,
)


def test_hadamard_state_uniform():
    s = hadamard_state(3)
    assert np.allclose(s.amplitudes, np.full(8, 1 / np.sqrt(8)))


def test_x13_state_signs():
    s = hadamard_x13_state(4)
    # amplitude sign at index b is (-1)^(b1 + b3)
    for idx in range(16):
        sign = (-1) ** (((idx >> 1) & 1) + ((idx >> 3) & 1))
        assert s.amplitudes[idx] == pytest.approx(sign / 4, abs=1e-12)


@pytest.mark.parametrize("n", [1, 4, 7, 12])
def test_presets_match_per_qubit_gates_bit_for_bit(n):
    from tqsf.statevector import HADAMARD, PAULI_X, Gate, apply_gate, new_basis_state

    def gates(xs):
        state = new_basis_state(n, "0" * n)
        for q in xs:
            apply_gate(state, Gate(PAULI_X, (q,)))
        for q in range(n):
            apply_gate(state, Gate(HADAMARD, (q,)))
        return state.amplitudes

    assert np.array_equal(hadamard_state(n).amplitudes, gates(()))
    if n >= 4:
        assert np.array_equal(hadamard_x13_state(n).amplitudes, gates((1, 3)))


def test_x13_requires_four_qubits():
    with pytest.raises(ValueError):
        hadamard_x13_state(3)


def test_preset_bitstring():
    s = preset_state("0110", 4)
    assert np.flatnonzero(s.amplitudes).tolist() == [6]


def test_preset_unknown():
    with pytest.raises(ValueError):
        preset_state("bogus", 4)


def test_random_state_normalized():
    rng = np.random.default_rng(0)
    s = random_state(5, rng)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


def test_load_amplitudes_roundtrip(tmp_path):
    path = tmp_path / "amps.txt"
    rng = np.random.default_rng(1)
    original = random_state(2, rng)
    lines = [f"{float(a.real)!r} {float(a.imag)!r}" for a in original.amplitudes]
    path.write_text("\n".join(lines) + "\n")
    loaded = load_amplitudes(path, 2)
    assert np.max(np.abs(loaded.amplitudes - original.amplitudes)) < 1e-12


def test_load_amplitudes_normalizes_with_warning(tmp_path):
    path = tmp_path / "amps.txt"
    path.write_text("2.0 0.0\n0.0 0.0\n")
    with pytest.warns(UserWarning):
        s = load_amplitudes(path, 1)
    assert np.allclose(s.amplitudes, [1, 0])


def test_load_amplitudes_length_check(tmp_path):
    path = tmp_path / "amps.txt"
    path.write_text("1.0 0.0\n")
    with pytest.raises(ValueError):
        load_amplitudes(path, 2)
