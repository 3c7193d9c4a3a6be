import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqsf.statevector import (
    HADAMARD,
    PAULI_X,
    SWAP,
    Gate,
    StateVector,
    _fix,
    _hadamard_wall,
    _tensor,
    apply_controlled,
    apply_gate,
    new_basis_state,
    outcome_distribution,
    sample_counts,
)
from tqsf.states import random_state


def test_basis_state_single_qubit():
    s = new_basis_state(1, "0")
    assert np.allclose(s.amplitudes, [1, 0])


def test_basis_state_all_zero():
    s = new_basis_state(4, "0000")
    assert s.amplitudes[0] == 1.0
    assert np.count_nonzero(s.amplitudes) == 1


def test_basis_state_bit_order():
    # "01" is written most-significant qubit first: qubit1=0, qubit0=1
    s = new_basis_state(2, "01")
    assert np.flatnonzero(s.amplitudes).tolist() == [1]


def test_basis_state_length_mismatch():
    with pytest.raises(ValueError):
        new_basis_state(3, "01")


def test_hadamard_on_zero():
    s = apply_gate(new_basis_state(1, "0"), Gate(HADAMARD, (0,)))
    assert np.allclose(s.amplitudes, [1 / np.sqrt(2), 1 / np.sqrt(2)])


def test_x_on_qubit1_is_involution():
    s = new_basis_state(2, "00")
    x1 = Gate(PAULI_X, (1,))
    apply_gate(s, x1)
    assert np.flatnonzero(s.amplitudes).tolist() == [2]  # qubit 1 set -> index 2
    apply_gate(s, x1)
    assert np.flatnonzero(s.amplitudes).tolist() == [0]


def test_swap_transposes_bits():
    s = new_basis_state(2, "01")
    apply_gate(s, Gate(SWAP, (0, 1)))
    assert np.flatnonzero(s.amplitudes).tolist() == [2]


def test_gate_rejects_nonunitary():
    with pytest.raises(ValueError):
        Gate(np.array([[1, 0], [0, 2]]), (0,))


def test_gate_rejects_out_of_range_target():
    s = new_basis_state(1, "0")
    with pytest.raises(ValueError):
        apply_gate(s, Gate(PAULI_X, (3,)))


def test_cnot_via_controlled_x():
    # state with qubit0 = 1; control on qubit0 flips qubit1
    s = new_basis_state(2, "01")
    apply_controlled(s, [0], [1], Gate(PAULI_X, (1,)))
    assert np.flatnonzero(s.amplitudes).tolist() == [3]


def test_open_control_leaves_state():
    s = new_basis_state(2, "01")  # control qubit0 = 1, open control wants 0
    before = s.amplitudes.copy()
    apply_controlled(s, [0], [0], Gate(PAULI_X, (1,)))
    assert np.allclose(s.amplitudes, before)


def test_control_target_overlap_rejected():
    s = new_basis_state(2, "00")
    with pytest.raises(ValueError):
        apply_controlled(s, [0], [1], Gate(PAULI_X, (0,)))


def test_outcome_distribution_basis_and_plus():
    assert outcome_distribution(new_basis_state(1, "0"), [0]) == {"0": pytest.approx(1.0)}
    plus = apply_gate(new_basis_state(1, "0"), Gate(HADAMARD, (0,)))
    d = outcome_distribution(plus, [0])
    assert d["0"] == pytest.approx(0.5)
    assert d["1"] == pytest.approx(0.5)


def test_outcome_distribution_sums_to_one():
    rng = np.random.default_rng(7)
    s = random_state(4, rng)
    d = outcome_distribution(s, [0, 1, 2, 3])
    assert sum(d.values()) == pytest.approx(1.0, abs=1e-12)
    assert all(p > 1e-12 for p in d.values())


def test_sample_counts_deterministic_and_total():
    s = new_basis_state(1, "0")
    assert sample_counts(s, [0], 100, seed=3) == {"0": 100}
    plus = apply_gate(new_basis_state(1, "0"), Gate(HADAMARD, (0,)))
    c1 = sample_counts(plus, [0], 100_000, seed=11)
    c2 = sample_counts(plus, [0], 100_000, seed=11)
    assert c1 == c2
    assert sum(c1.values()) == 100_000
    sigma = np.sqrt(100_000 * 0.25)
    for bit in ("0", "1"):
        assert abs(c1[bit] - 50_000) < 3 * sigma


def test_sample_counts_rejects_zero_shots():
    with pytest.raises(ValueError):
        sample_counts(new_basis_state(1, "0"), [0], 0, seed=1)


@pytest.mark.parametrize("readout", [
    lambda s: outcome_distribution(s, [0, 0]),
    lambda s: sample_counts(s, [0, 0], 10, 1),
], ids=["outcome_distribution", "sample_counts"])
def test_readouts_reject_repeated_qubits(readout):
    with pytest.raises(ValueError, match="distinct"):
        readout(new_basis_state(2, "00"))


def test_norm_preserved_under_gate_sequences():
    rng = np.random.default_rng(9)
    s = random_state(4, rng)
    for _ in range(30):
        q = int(rng.integers(4))
        apply_gate(s, Gate(HADAMARD, (q,)))
        a, b = rng.choice(4, size=2, replace=False)
        apply_gate(s, Gate(SWAP, (int(a), int(b))))
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12


def test_unitarity_round_trip():
    rng = np.random.default_rng(13)
    s = random_state(3, rng)
    before = s.amplitudes.copy()
    theta = 0.7
    u = np.array(
        [[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]],
        dtype=complex,
    )
    g = Gate(u, (1,))
    apply_gate(s, g)
    apply_gate(s, Gate(u.conj().T, (1,)))
    assert np.max(np.abs(s.amplitudes - before)) < 1e-12


def test_born_consistency_sampled_vs_exact():
    rng = np.random.default_rng(17)
    s = random_state(3, rng)
    exact = outcome_distribution(s, [0, 1, 2])
    counts = sample_counts(s, [0, 1, 2], 100_000, seed=23)
    chisq = 0.0
    for key, p in exact.items():
        expected = 100_000 * p
        chisq += (counts.get(key, 0) - expected) ** 2 / expected
    # 7 degrees of freedom; far tail bound
    assert chisq < 30.0


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 1.0]))


def test_state_vector_rejects_bad_length():
    with pytest.raises(ValueError):
        StateVector(np.array([1.0, 0.0, 0.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)])
def test_state_vector_rejects_non_finite(bad):
    with pytest.raises(ValueError, match="not finite"):
        StateVector(np.array([bad, 0.0, 0.0, 0.0]))


@st.composite
def fixed_qubits(draw):
    q = draw(st.integers(1, 8))
    qubits = draw(st.lists(st.integers(0, q - 1), max_size=q, unique=True))
    bits = draw(st.lists(st.integers(0, 1), min_size=len(qubits), max_size=len(qubits)))
    return q, dict(zip(qubits, bits))


@settings(deadline=None)
@given(fixed_qubits(), st.integers(0, 2**32 - 1))
def test_fix_selects_matching_amplitudes_in_place(case, seed):
    q, fixed = case
    state = random_state(q, np.random.default_rng(seed))
    amps = state.amplitudes
    view = _fix(_tensor(amps, q), fixed)
    assert view.ndim == q
    for qb in range(q):
        assert view.shape[q - 1 - qb] == (1 if qb in fixed else 2)
    idx = np.arange(amps.size)
    match = np.ones(amps.size, dtype=bool)
    for qb, bit in fixed.items():
        match &= ((idx >> qb) & 1) == bit
    assert np.array_equal(view.reshape(-1), amps[match])
    view[...] = -1.0
    assert np.all(state.amplitudes[match] == -1.0)
    assert not np.any(state.amplitudes[~match] == -1.0)


@st.composite
def fresh_registers(draw):
    q = draw(st.integers(1, 9))
    size = draw(st.integers(1, q))
    return q, tuple(draw(st.permutations(range(q)))[:size])  # unordered, gaps allowed


@settings(deadline=None)
@given(fresh_registers(), st.integers(0, 2**32 - 1))
def test_hadamard_wall_matches_per_qubit_gates_bit_for_bit(case, seed):
    q, register = case
    rng = np.random.default_rng(seed)
    amps = np.zeros(1 << q, dtype=np.complex128)
    populated = _fix(_tensor(amps, q), dict.fromkeys(register, 0))
    populated[...] = (rng.standard_normal(populated.shape)
                      + 1j * rng.standard_normal(populated.shape))
    state = StateVector(amps / np.linalg.norm(amps))
    expected = state.copy()
    for qb in register:
        apply_gate(expected, Gate(HADAMARD, (qb,)))
    before = state.amplitudes
    assert _hadamard_wall(state, register) is state
    assert state.amplitudes is before
    assert np.array_equal(state.amplitudes, expected.amplitudes)
