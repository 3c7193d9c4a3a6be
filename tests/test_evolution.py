from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from tqsf import evolution, filtering, spin
from tqsf.evolution import (
    PhaseUnitary,
    _eigenbasis,
    _evolve,
    _pair_rotate,
    _trotter_blocks,
    apply_controlled_phase_unitary,
    apply_swap_rotation,
    coupling_phase_unitary,
    prefix_spin_phase_unitary,
    total_spin_phase_unitary,
    z_phase_unitary,
)
from tqsf.spin import (
    HammingWeightOperator,
    TranspositionSum,
    build_step_operator,
    build_total_spin_squared,
    eigen_oracle,
    min_ancillas,
    spectrum,
    spin_register_size,
)
from tqsf.states import hadamard_state, random_state
from tqsf.statevector import (
    HADAMARD,
    Gate,
    StateVector,
    _fix,
    _tensor,
    apply_controlled,
    apply_gate,
    new_basis_state,
)


def test_z_unitary_phases_basis_states():
    n, n_z = 4, 3
    spec = z_phase_unitary(n, n_z)
    for bits, weight in [("0000", 0), ("0101", 2), ("1111", 4)]:
        s = _evolve(spec, new_basis_state(n, bits), 1)
        idx = int(bits, 2)
        expected = np.exp(2j * np.pi * weight / 2**n_z)
        assert s.amplitudes[idx] == pytest.approx(expected, abs=1e-12)


def test_z_unitary_full_period_is_identity():
    n, n_z = 3, min_ancillas("z", 3)
    spec = z_phase_unitary(n, n_z)
    rng = np.random.default_rng(0)
    s = random_state(n, rng)
    before = s.amplitudes.copy()
    _evolve(spec, s, 1 << n_z)
    assert np.max(np.abs(s.amplitudes - before)) < 1e-12


def test_spin_unitary_fixes_singlet_product():
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    state = StateVector(np.kron(singlet, singlet))
    spec = total_spin_phase_unitary(4, spin_register_size(4))
    before = state.amplitudes.copy()
    _evolve(spec, state, 1)
    assert np.max(np.abs(state.amplitudes - before)) < 1e-12


def test_exact_eigenphase_correctness():
    for n in (2, 3, 4):
        spec = total_spin_phase_unitary(n, spin_register_size(n))
        proj = eigen_oracle(spec.operator)
        rng = np.random.default_rng(n)
        for lam, p in zip(proj.eigenvalues, proj.projectors):
            vec = p @ (rng.standard_normal(1 << n) + 1j * rng.standard_normal(1 << n))
            norm = np.linalg.norm(vec)
            if norm < 1e-9:
                continue
            state = StateVector(vec / norm)
            expected = np.exp(2j * np.pi * spec.alpha * lam) * state.amplitudes
            _evolve(spec, state, 1)
            assert np.max(np.abs(state.amplitudes - expected)) < 1e-10


def test_exact_inverse_by_negated_alpha():
    rng = np.random.default_rng(4)
    s = random_state(4, rng)
    before = s.amplitudes.copy()
    spec = total_spin_phase_unitary(4, 2)
    inverse = PhaseUnitary(spec.operator, -spec.alpha)
    _evolve(spec, s, 1)
    assert abs(np.linalg.norm(s.amplitudes) - 1.0) < 1e-12
    _evolve(inverse, s, 1)
    assert np.max(np.abs(s.amplitudes - before)) < 1e-12


def test_swap_rotation_pi_gives_global_minus():
    rng = np.random.default_rng(1)
    s = random_state(2, rng)
    before = s.amplitudes.copy()
    apply_swap_rotation(s, np.pi, 0, 1)
    assert np.max(np.abs(s.amplitudes + before)) < 1e-12


def test_swap_rotation_half_pi_on_01():
    s = new_basis_state(2, "01")  # qubit0 = 1
    apply_swap_rotation(s, np.pi / 2, 0, 1)
    expected = np.zeros(4, dtype=complex)
    expected[2] = 1j
    assert np.max(np.abs(s.amplitudes - expected)) < 1e-12


def test_swap_rotation_angles_compose():
    rng = np.random.default_rng(2)
    a = random_state(3, rng)
    b = a.copy()
    apply_swap_rotation(a, 0.3, 0, 2)
    apply_swap_rotation(a, 0.5, 0, 2)
    apply_swap_rotation(b, 0.8, 0, 2)
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_swap_rotation_rejects_equal_indices():
    s = new_basis_state(2, "00")
    with pytest.raises(ValueError):
        apply_swap_rotation(s, 0.1, 1, 1)


@pytest.mark.parametrize("alpha", [0.3, np.pi / 2, 1.9])
def test_swap_rotation_matches_dense_exponential(alpha):
    rng = np.random.default_rng(3)
    s = random_state(3, rng)
    p = TranspositionSum(num_qubits=3, pairs=((0, 2),)).to_dense()
    expected = expm(1j * alpha * p) @ s.amplitudes
    apply_swap_rotation(s, alpha, 0, 2)
    assert np.max(np.abs(s.amplitudes - expected)) < 1e-12


def test_trotter_exact_for_single_pair():
    # one transposition: nothing to split, any step count is exact
    spec_e = total_spin_phase_unitary(2, 1)
    for steps in (1, 3, 7):
        spec_t = total_spin_phase_unitary(2, 1, mode="trotter", trotter_steps=steps)
        rng = np.random.default_rng(steps)
        s = random_state(2, rng)
        a = _evolve(spec_e, s.copy(), 1)
        b = _evolve(spec_t, s.copy(), 1)
        assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_trotter_error_decreases_and_halves():
    rng = np.random.default_rng(5)
    state = random_state(4, rng)
    spec_e = total_spin_phase_unitary(4, 2)
    exact = _evolve(spec_e, state.copy(), 1)
    errors = []
    for steps in (8, 16, 32, 64, 128):
        spec_t = total_spin_phase_unitary(4, 2, mode="trotter", trotter_steps=steps)
        approx = _evolve(spec_t, state.copy(), 1)
        errors.append(np.linalg.norm(approx.amplitudes - exact.amplitudes))
    assert all(b < a for a, b in zip(errors, errors[1:]))
    for a, b in zip(errors[2:], errors[3:]):
        assert 0.4 < b / a < 0.6


def test_controlled_identity_on_zero_control():
    n = 3
    spec = total_spin_phase_unitary(n, 2)
    rng = np.random.default_rng(6)
    sys_state = random_state(n, rng)
    amps = np.zeros(1 << (n + 1), dtype=complex)
    amps[: 1 << n] = sys_state.amplitudes  # control qubit n in |0>
    joint = StateVector(amps)
    before = joint.amplitudes.copy()
    apply_controlled_phase_unitary(spec, joint, control=n)
    assert np.max(np.abs(joint.amplitudes - before)) < 1e-12


def test_controlled_phase_kickback():
    # control in |+>, system in an eigenstate: control picks up the phase
    n = 2
    spec = total_spin_phase_unitary(n, 1)
    sys_amps = np.zeros(4, dtype=complex)
    sys_amps[0] = 1.0  # |00>: S=1, eigenvalue 2, phase 2/4
    joint_amps = np.zeros(8, dtype=complex)
    joint_amps[:4] = sys_amps / np.sqrt(2)
    joint_amps[4:] = sys_amps / np.sqrt(2)
    joint = StateVector(joint_amps)
    apply_controlled_phase_unitary(spec, joint, control=2)
    phase = np.exp(2j * np.pi * spec.alpha * 2.0)
    assert joint.amplitudes[4] == pytest.approx(phase / np.sqrt(2), abs=1e-12)
    assert joint.amplitudes[0] == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_controlled_trotter_converges_to_controlled_exact():
    n = 4
    rng = np.random.default_rng(7)
    sys_state = random_state(n, rng)
    amps = np.zeros(1 << (n + 1), dtype=complex)
    amps[: 1 << n] = sys_state.amplitudes / np.sqrt(2)
    amps[1 << n :] = sys_state.amplitudes / np.sqrt(2)
    spec_e = total_spin_phase_unitary(n, 2)
    exact = StateVector(amps.copy())
    apply_controlled_phase_unitary(spec_e, exact, control=n)
    prev = None
    for steps in (16, 64, 256):
        spec_t = total_spin_phase_unitary(n, 2, mode="trotter", trotter_steps=steps)
        approx = StateVector(amps.copy())
        apply_controlled_phase_unitary(spec_t, approx, control=n)
        err = np.linalg.norm(approx.amplitudes - exact.amplitudes)
        if prev is not None:
            assert err < prev
        prev = err
    assert prev < 1e-2


def test_controlled_rejects_overlapping_control():
    spec = total_spin_phase_unitary(2, 1)
    rng = np.random.default_rng(8)
    s = random_state(3, rng)
    with pytest.raises(ValueError):
        apply_controlled_phase_unitary(spec, s, control=1)


def test_odd_spin_unitary_phases():
    # n=3: eigenvalues 3/4 and 15/4 map to register integers 0 and 3
    spec = total_spin_phase_unitary(3, 2)
    proj = eigen_oracle(build_total_spin_squared(3))
    shifted = {round(4 * spec.alpha * lam) for lam in
               [e - 0.75 for e in proj.eigenvalues]}
    assert shifted == {0, 3}


def test_prefix_and_coupling_specs_match_operators():
    spec = prefix_spin_phase_unitary(2, 4, 1)
    assert spec.operator.pairs == ((0, 1),)
    spec = coupling_phase_unitary(4, 4, 3)
    assert spec.operator.pairs == ((0, 3), (1, 3), (2, 3))
    assert spec.operator.identity_coefficient == pytest.approx(1.0)


def test_step_unitary_hadamard_test_probabilities():
    """One-ancilla test of the step unitary reads increase/decrease exactly."""
    spec = PhaseUnitary(build_step_operator(2, 2, 1), 0.5)
    # |00> is symmetric: eigenvalue 1, V = -1 on it, ancilla must read 1
    joint = np.zeros(8, dtype=complex)
    joint[0] = 1.0
    state = StateVector(joint)
    apply_gate(state, Gate(HADAMARD, (2,)))
    apply_controlled_phase_unitary(spec, state, control=2)
    apply_gate(state, Gate(HADAMARD, (2,)))
    p1 = float(np.sum(np.abs(state.amplitudes[4:]) ** 2))
    assert p1 == pytest.approx(1.0, abs=1e-12)


def test_trotter_requires_steps():
    with pytest.raises(ValueError):
        PhaseUnitary(build_total_spin_squared(2), 0.25, mode="trotter", trotter_steps=0)


def _index_swap_rotation(amps, alpha, i, j, control=None):
    """Index-array form of the (controlled) SWAP rotation: the bit-level reference."""
    idx = np.arange(amps.size)
    partner = amps[idx ^ ((1 << i) | (1 << j))]
    same = ((idx >> i) & 1) == ((idx >> j) & 1)
    rotated = np.cos(alpha) * amps + 1j * np.sin(alpha) * np.where(same, amps, partner)
    if control is None:
        return rotated
    return np.where(((idx >> control) & 1) == 1, rotated, amps)


@pytest.mark.parametrize(
    "i, j, control",
    [(0, 11, None), (7, 2, None), (3, 9, 5), (9, 1, 4), (10, 6, 0), (0, 5, 11), (11, 10, 3)],
)
def test_swap_rotation_kernel_is_bit_identical_to_index_reference(i, j, control):
    rng = np.random.default_rng(100 + i)
    state = random_state(12, rng)
    expected = _index_swap_rotation(state.amplitudes, 0.37, i, j, control)
    if control is None:
        apply_swap_rotation(state, 0.37, i, j)
    else:
        _pair_rotate(_fix(_tensor(state.amplitudes, 12), {control: 1}), 0.37, i, j)
    assert np.array_equal(state.amplitudes, expected)


@pytest.mark.parametrize("steps", [3, 64])
def test_controlled_trotter_sweep_matches_index_reference(steps):
    n, control = 5, 6
    rng = np.random.default_rng(9)
    state = random_state(n + 2, rng)
    spec = total_spin_phase_unitary(n, 3, mode="trotter", trotter_steps=steps)
    op = spec.operator
    expected = state.amplitudes.copy()
    on = ((np.arange(expected.size) >> control) & 1) == 1
    phase = np.exp(2j * np.pi * spec.alpha * op.identity_coefficient / op.denominator)
    expected = np.where(on, expected * phase, expected)
    for _ in range(steps):
        for i, j in sorted(op.pairs):
            alpha = 2 * np.pi * spec.alpha / (op.denominator * steps)
            expected = _index_swap_rotation(expected, alpha, i, j, control)
    apply_controlled_phase_unitary(spec, state, control)
    # the fused power rounds differently from the per-pair sweep
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12


_TWO_QUBIT_SPECS = {
    "exact": total_spin_phase_unitary(2, 1),
    "trotter": total_spin_phase_unitary(2, 1, mode="trotter", trotter_steps=4),
    "hamming": z_phase_unitary(2, 2),
}


@pytest.mark.parametrize("kind", sorted(_TWO_QUBIT_SPECS))
@pytest.mark.parametrize("control", [4, 7, -1])
def test_controlled_rejects_out_of_range_control(kind, control):
    state = random_state(4, np.random.default_rng(10))
    before = state.amplitudes.copy()
    with pytest.raises(ValueError):
        apply_controlled_phase_unitary(_TWO_QUBIT_SPECS[kind], state, control=control)
    assert np.array_equal(state.amplitudes, before)


@pytest.mark.parametrize(
    "spec",
    [
        total_spin_phase_unitary(4, 2),
        total_spin_phase_unitary(4, 2, mode="trotter", trotter_steps=2),
        z_phase_unitary(4, 3),
    ],
    ids=["exact", "trotter", "hamming"],
)
def test_rejects_operator_wider_than_state(spec):
    state = random_state(3, np.random.default_rng(11))
    with pytest.raises(ValueError):
        _evolve(spec, state, 1)


@pytest.mark.parametrize("i, j", [(0, 3), (-1, 1), (3, 0)])
def test_swap_rotation_rejects_out_of_range_qubit(i, j):
    state = random_state(3, np.random.default_rng(12))
    with pytest.raises(ValueError):
        apply_swap_rotation(state, 0.3, i, j)


@st.composite
def rotation_cases(draw):
    q = draw(st.integers(2, 8))
    i, j = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
    others = [c for c in range(q) if c not in (i, j)]
    control = draw(st.none() | st.sampled_from(others)) if others else None
    alpha = draw(st.floats(-4.0, 4.0))
    return q, i, j, control, alpha, draw(st.sampled_from(["exact", "trotter"]))


def _on_control_block(amps, control, transformed):
    """`transformed` where `control` reads 1, `amps` elsewhere."""
    if control is None:
        return transformed
    on = ((np.arange(amps.size) >> control) & 1) == 1
    return np.where(on, transformed, amps)


def _assert_updated_in_place(apply, state, expected):
    amps = state.amplitudes
    view = amps[1::2]  # taken before the call: must see the update
    apply(state)
    assert state.amplitudes is amps
    assert np.max(np.abs(amps - expected)) < 1e-12
    assert np.max(np.abs(view - expected[1::2])) < 1e-12


@settings(deadline=None)
@given(rotation_cases(), st.integers(0, 2**32 - 1))
def test_swap_rotation_matches_dense_on_control_block(case, seed):
    q, i, j, control, alpha, mode = case
    state = random_state(q, np.random.default_rng(seed))
    swap = TranspositionSum(num_qubits=q, pairs=((min(i, j), max(i, j)),))
    p = swap.to_dense()
    rotated = (np.cos(alpha) * np.eye(1 << q) + 1j * np.sin(alpha) * p) @ state.amplitudes
    expected = _on_control_block(state.amplitudes, control, rotated)
    if control is None:
        _assert_updated_in_place(lambda s: apply_swap_rotation(s, alpha, i, j), state, expected)
        return
    # exp(2*pi*i * alpha/(2*pi) * P_ij): one pair, so one trotter step is exact
    spec = PhaseUnitary(swap, alpha / (2 * np.pi), mode=mode, trotter_steps=1)
    _assert_updated_in_place(
        lambda s: apply_controlled_phase_unitary(spec, s, control), state, expected
    )


@st.composite
def hamming_cases(draw):
    q = draw(st.integers(1, 8))
    n = draw(st.integers(1, q))
    control = draw(st.none() | st.integers(n, q - 1)) if n < q else None
    return q, n, control, draw(st.floats(-2.0, 2.0))


@settings(deadline=None)
@given(hamming_cases(), st.integers(0, 2**32 - 1))
def test_hamming_phase_matches_dense_diagonal_on_control_block(case, seed):
    q, n, control, alpha = case
    state = random_state(q, np.random.default_rng(seed))
    weight = np.kron(np.eye(1 << (q - n)), HammingWeightOperator(n).to_dense())
    dense = np.diag(np.exp(2j * np.pi * alpha * np.diag(weight).real))
    expected = _on_control_block(state.amplitudes, control, dense @ state.amplitudes)
    spec = PhaseUnitary(HammingWeightOperator(n), alpha)
    if control is None:
        _assert_updated_in_place(lambda s: _evolve(spec, s, 1), state, expected)
    else:
        _assert_updated_in_place(
            lambda s: apply_controlled_phase_unitary(spec, s, control), state, expected
        )


# ------------------------------------------- weight-block synthesis vs oracle


def _step_spec(j, n, two_S_prev):
    """The exp(i*pi*G) whose Hadamard test reads method C's step bit."""
    return PhaseUnitary(build_step_operator(j, n, two_S_prev), 0.5)


def _step_spins(j):
    """Every nonzero spin 2S' of j-1 qubits: the step operators' prefix spins."""
    return range(2 - (j - 1) % 2, j, 2)


def _run_path_specs(m):
    """Every phase unitary family whose operator acts on qubits 0..m-1."""
    yield total_spin_phase_unitary(m, spin_register_size(m))  # odd m: shifted by -3/4
    yield prefix_spin_phase_unitary(m, m + 1, spin_register_size(m))
    yield coupling_phase_unitary(m, m, min_ancillas("hj", m))
    for two_S_prev in _step_spins(m):
        yield _step_spec(m, m, two_S_prev)


def _assembled(blocks, m):
    """The dense 2^m x 2^m matrix of (indices, block) pairs over m support qubits."""
    out = np.zeros((1 << m,) * 2, dtype=np.complex128)
    for idx, block in blocks:
        out[np.ix_(idx, idx)] = block
    return out


def _exact_dense(op, scale):
    """exp(2*pi*i * scale * op) on the support as a dense matrix, assembled from the
    blocks V diag(exp(2*pi*i * scale * lambda)) V^T of `_eigenbasis`, and its rotation."""
    rotation, eigenvalues = _eigenbasis(op)
    lam = eigenvalues.reshape(-1)  # by support index
    blocks = [(idx, (v * np.exp(2j * np.pi * scale * lam[idx])) @ v.T) for idx, v in rotation]
    return _assembled(blocks, len(op.support)), rotation


@pytest.mark.parametrize("m", range(2, 9))
def test_block_synthesis_matches_dense_oracle(m):
    for spec in _run_path_specs(m):
        op = spec.operator
        proj = eigen_oracle(op)
        got = spectrum(op)
        assert len(got) == len(proj.eigenvalues)
        assert np.max(np.abs(np.array(got) - proj.eigenvalues)) < 1e-12
        assert op.support == tuple(range(m))
        for power in (1, 2, 4, 8):
            scale = spec.alpha * power
            matrix = _exact_dense(op, scale)[0]
            assert np.max(np.abs(matrix.conj().T @ matrix - np.eye(1 << m))) < 1e-12
            expected = sum(np.exp(2j * np.pi * scale * lam) * p
                           for lam, p in zip(proj.eigenvalues, proj.projectors))
            # the oracle acts on all op.num_qubits qubits; the spectator is identity
            embedded = np.kron(np.eye(1 << (op.num_qubits - m)), matrix)
            assert np.max(np.abs(embedded - expected)) < 1e-12


@pytest.mark.parametrize("m", range(2, 11))
def test_eigenbasis_eigenvalues_are_exact_spectrum_values(m):
    for spec in _run_path_specs(m):
        op = spec.operator
        rotation, eigenvalues = _eigenbasis(op)
        assert set(eigenvalues.reshape(-1).tolist()) <= set(spectrum(op))
        # each exact value belongs to its own eigenvector: op V = V diag(lambda)
        dense = op.dense_on_support()[0].real
        for idx, v in rotation:
            residual = dense[np.ix_(idx, idx)] @ v - v * eigenvalues.reshape(-1)[idx]
            assert np.max(np.abs(residual)) < 1e-12


def test_eigenbasis_rejects_a_non_orthogonal_basis(monkeypatch):
    op = build_total_spin_squared(3)
    stretched = tuple((idx, w, 1.5 * v) for idx, w, v in spin.eigen_blocks(op))
    monkeypatch.setattr(evolution, "eigen_blocks", lambda _: stretched)
    with pytest.raises(ValueError, match="not unitary"):
        _eigenbasis.__wrapped__(op)  # past the cache, which may hold op's basis


def test_eigenbasis_rejects_eigenvalues_off_the_exact_spectrum(monkeypatch):
    op = build_total_spin_squared(4)
    shifted = tuple((idx, w + 1e-6, v) for idx, w, v in spin.eigen_blocks(op))
    monkeypatch.setattr(evolution, "eigen_blocks", lambda _: shifted)
    with pytest.raises(ValueError, match="exact spectrum"):
        _eigenbasis.__wrapped__(op)


@st.composite
def controlled_exact_cases(draw):
    n = draw(st.integers(2, 5))
    j = draw(st.integers(2, n))
    family = draw(st.sampled_from(["z", "s2", "prefix", "coupling", "step"]))
    if family == "z":
        spec = z_phase_unitary(n, min_ancillas("z", n))
    elif family == "s2":
        spec = total_spin_phase_unitary(n, spin_register_size(n))
    elif family == "prefix":
        spec = prefix_spin_phase_unitary(j, n, spin_register_size(j))
    elif family == "coupling":
        spec = coupling_phase_unitary(j, n, min_ancillas("hj", j))
    else:
        spec = _step_spec(j, n, draw(st.sampled_from(_step_spins(j))))
    q = n + draw(st.integers(0, 3))
    free = [c for c in range(q) if c not in spec.operator.support]
    control = draw(st.none() | st.sampled_from(free)) if free else None
    return spec, q, draw(st.integers(1, 8)), control


@settings(deadline=None, max_examples=60)
@given(controlled_exact_cases(), st.integers(0, 2**32 - 1))
@example((PhaseUnitary(TranspositionSum(num_qubits=3), 0.5), 5, 1, 4), 0)  # empty support
def test_exact_blocks_match_assembled_dense_under_controls(case, seed):
    spec, q, power, control = case
    controls = () if control is None else (control,)
    state = random_state(q, np.random.default_rng(seed))
    op = spec.operator
    m = len(op.support)
    scale = spec.alpha * power
    if isinstance(op, HammingWeightOperator):  # diagonal: applied as a phase tensor
        blocks, dense = (), np.diag(np.exp(2j * np.pi * scale * op.diagonal()))
    else:
        dense, blocks = _exact_dense(op, scale)
    gate = Gate(dense, op.support)
    expected = apply_controlled(state.copy(), controls, (1,) * len(controls), gate).amplitudes
    _assert_updated_in_place(lambda s: _evolve(spec, s, power, control),
                             state, expected)
    # the rotation's blocks cover the support index once; none is 2^m x 2^m
    if blocks:
        assert np.array_equal(np.sort(np.concatenate([idx for idx, _ in blocks])),
                              np.arange(1 << m))
        assert all(block.shape == (len(idx), len(idx)) for idx, block in blocks)
    if blocks and m >= 2:
        assert all(len(idx) < 1 << m for idx, _ in blocks)


def test_every_lru_cache_is_bounded():
    import importlib
    import pkgutil

    import tqsf

    caches = {}
    for info in pkgutil.iter_modules(tqsf.__path__):
        module = importlib.import_module(f"tqsf.{info.name}")
        for owner in [module, *(v for v in vars(module).values() if isinstance(v, type))]:
            for name, value in vars(owner).items():
                if hasattr(value, "cache_parameters"):
                    caches[name] = value.cache_parameters()["maxsize"]
    assert {"_eigenbasis", "eigen_blocks", "eigen_oracle"} <= set(caches)
    assert all(maxsize is not None for maxsize in caches.values()), caches


# ------------------------------------ fused trotter powers vs per-pair sweep


def _per_pair_sweep(spec, state, power=1, control=None):
    """Trotter U^power as `steps` sweeps of `_pair_rotate`: the reference the
    fused per-block powers replace. The identity part is one exact phase."""
    op = spec.operator
    scale = spec.alpha * power
    steps = spec.trotter_steps
    view = _fix(_tensor(state.amplitudes, state.num_qubits),
                {} if control is None else {control: 1})
    if op.identity_coefficient:
        view *= np.exp(2j * np.pi * scale * op.identity_coefficient / op.denominator)
    order = sorted(op.pairs)
    for _ in range(steps):
        for i, j in order:
            _pair_rotate(view, 2 * np.pi * scale / (op.denominator * steps), i, j)
    return state


@st.composite
def trotter_cases(draw):
    n = draw(st.integers(2, 5))
    j = draw(st.integers(2, n))
    steps = draw(st.integers(1, 64))
    family = draw(st.sampled_from(["s2", "prefix", "coupling", "step"]))
    if family == "s2":
        spec = total_spin_phase_unitary(n, spin_register_size(n), "trotter", steps)
    elif family == "prefix":
        spec = prefix_spin_phase_unitary(j, n, spin_register_size(j), "trotter", steps)
    elif family == "coupling":
        spec = coupling_phase_unitary(j, n, min_ancillas("hj", j), "trotter", steps)
    else:  # the step operator carries its shifted identity (2S' + 3 - j)/2
        two_S_prev = draw(st.sampled_from(_step_spins(j)))
        spec = replace(_step_spec(j, n, two_S_prev), mode="trotter", trotter_steps=steps)
    q = n + draw(st.integers(0, 2))
    free = [c for c in range(q) if c not in spec.operator.support]
    control = draw(st.none() | st.sampled_from(free)) if free else None
    return spec, q, draw(st.integers(1, 8)), control


@settings(deadline=None, max_examples=60)
@given(trotter_cases(), st.integers(0, 2**32 - 1))
def test_fused_trotter_power_matches_per_pair_sweep(case, seed):
    spec, q, power, control = case
    state = random_state(q, np.random.default_rng(seed))
    expected = _per_pair_sweep(spec, state.copy(), power, control).amplitudes

    def apply(s):
        if control is None:
            return _evolve(spec, s, power)
        return apply_controlled_phase_unitary(spec, s, control, power)

    _assert_updated_in_place(apply, state, expected)
    op = spec.operator
    blocks = _trotter_blocks(op, spec.alpha * power, spec.trotter_steps)
    # the blocks cover the support index once; none is the dense 2^m x 2^m matrix
    m = len(op.support)
    assert np.array_equal(np.sort(np.concatenate([idx for idx, _ in blocks])),
                          np.arange(1 << m))
    for idx, block in blocks:
        assert block.shape == (len(idx), len(idx)) and len(idx) < 1 << m
        assert np.max(np.abs(block.conj().T @ block - np.eye(len(idx)))) <= 1e-12
    misses = _trotter_blocks.cache_info().misses
    again = state.copy()
    apply(again)
    assert _trotter_blocks.cache_info().misses == misses
    assert _trotter_blocks(op, spec.alpha * power, spec.trotter_steps) is blocks
    assert _trotter_blocks.cache_parameters()["maxsize"] is not None


def _per_pair_controlled(spec, state, control, power=1):
    """`apply_controlled_phase_unitary` with trotter powers swept pair by pair."""
    if spec.mode == "trotter":
        return _per_pair_sweep(spec, state, power, control)
    return apply_controlled_phase_unitary(spec, state, control, power)


@pytest.mark.parametrize("method, n, steps", [("b-hj", 4, 16), ("a", 5, 3)])
def test_fused_trotter_leakage_matches_per_pair_sweep(monkeypatch, method, n, steps):
    state = random_state(n, np.random.default_rng(100 + n))
    fused = filtering.run_filter(state.copy(), n, method, "trotter", steps)[2]
    monkeypatch.setattr(filtering, "apply_controlled_phase_unitary", _per_pair_controlled)
    swept = filtering.run_filter(state.copy(), n, method, "trotter", steps)[2]
    assert [(o.label, o.raw_bits) for o in fused] == [(o.label, o.raw_bits) for o in swept]
    for a, b in zip(fused, swept):
        assert abs(a.probability - b.probability) <= 1e-12

    def leakage(outcomes):
        return sum(o.probability for o in outcomes if o.label is None)

    assert leakage(swept) > 1e-6
    assert abs(leakage(fused) - leakage(swept)) <= 1e-12
