import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqsf.errors import DecodeError
from tqsf.evolution import coupling_phase_unitary, prefix_spin_phase_unitary, total_spin_phase_unitary
from tqsf.spin import (
    SpinLabel,
    TranspositionSum,
    build_coupling_sum,
    build_hamming_weight,
    build_prefix_spin_squared,
    build_step_operator,
    build_total_spin_squared,
    decode_total_spin,
    degeneracy,
    eigen_oracle,
    encode_total_spin,
    min_ancillas,
    project_SM,
    spectrum,
    spin_register_size,
)
from tqsf.states import hadamard_state, random_state
from tqsf.statevector import StateVector
from tqsf.verification import _spin_labels


def dense_eigs(op):
    return np.linalg.eigvalsh(op.to_dense())


def test_total_spin_n2_structure():
    op = build_total_spin_squared(2)
    assert op.identity_coefficient == pytest.approx(1.0)
    assert op.pairs == ((0, 1),)
    w = dense_eigs(op)
    assert sorted(set(np.round(w, 9))) == [0.0, 2.0]


def test_total_spin_on_symmetric_state():
    op = build_total_spin_squared(2).to_dense()
    v = np.zeros(4)
    v[0] = 1.0  # |00>: triplet, S = 1
    assert np.allclose(op @ v, 2 * v)


def test_total_spin_n4_multiplicities():
    w = dense_eigs(build_total_spin_squared(4))
    counts = {val: int(np.sum(np.isclose(w, val))) for val in (0.0, 2.0, 6.0)}
    # degeneracy x (2S+1): 2*1, 3*3, 1*5
    assert counts == {0.0: 2, 2.0: 9, 6.0: 5}


def test_total_spin_rejects_zero():
    with pytest.raises(ValueError):
        build_total_spin_squared(0)


def test_prefix_full_length_equals_total():
    for n in (2, 3, 4):
        full = build_total_spin_squared(n)
        prefix = build_prefix_spin_squared(n, n)
        assert prefix == full


def test_prefix_j2_n4_multiplicities():
    w = dense_eigs(build_prefix_spin_squared(2, 4))
    counts = {val: int(np.sum(np.isclose(w, val))) for val in (0.0, 2.0)}
    # singlet (dim 1) and triplet (dim 3) each times 4 spectator states
    assert counts == {0.0: 4, 2.0: 12}


def test_prefix_out_of_range():
    with pytest.raises(ValueError):
        build_prefix_spin_squared(1, 4)
    with pytest.raises(ValueError):
        build_prefix_spin_squared(5, 4)


def test_prefix_family_shares_spin1_path_eigenbasis():
    """Simultaneous eigenvectors of the prefix family carry the path sequences

    (a) [2, 15/4, 2], (b) [2, 3/4, 2], (c) [0, 3/4, 2] for the three S=1
    coupling paths of four qubits.
    """
    ops = [build_prefix_spin_squared(j, 4).to_dense() for j in (2, 3, 4)]
    # diagonalize the family jointly via a generic linear combination
    combo = 1.0 * ops[0] + np.pi * ops[1] + np.e * ops[2]
    _, v = np.linalg.eigh(combo)
    sequences = set()
    for k in range(v.shape[1]):
        vec = v[:, k]
        seq = []
        for op in ops:
            val = np.real(np.vdot(vec, op @ vec))
            assert np.linalg.norm(op @ vec - val * vec) < 1e-8
            seq.append(round(4 * val) / 4)
        sequences.add(tuple(seq))
    for expected in [(2, 15 / 4, 2), (2, 3 / 4, 2), (0, 3 / 4, 2)]:
        assert expected in sequences


def test_coupling_sum_j2_is_single_swap():
    op = build_coupling_sum(2, 2)
    assert op.pairs == ((0, 1),)
    assert sorted(set(np.round(dense_eigs(op), 9))) == [-1.0, 1.0]


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_coupling_sum_equals_prefix_difference(n):
    """S^2_[j] - S^2_[j-1] = (5-2j)/4 I + coupling sum, exactly."""
    dim = 1 << n
    for j in range(2, n + 1):
        if j > 2:
            diff = build_prefix_spin_squared(j, n).to_dense() - build_prefix_spin_squared(
                j - 1, n
            ).to_dense()
        else:
            diff = build_prefix_spin_squared(2, n).to_dense() - 0.75 * np.eye(dim)
        rhs = (5 - 2 * j) / 4 * np.eye(dim) + build_coupling_sum(j, n).to_dense()
        assert np.max(np.abs(diff - rhs)) < 1e-12


def test_coupling_sum_spin1_path_sequences():
    """The three S=1 paths of n=4 have coupling eigenvalue sequences

    (a) [+1, +2, -1], (b) [+1, -1, +2], (c) [-1, +1, +2].
    """
    prefix_ops = [build_prefix_spin_squared(j, 4).to_dense() for j in (2, 3, 4)]
    coupling_ops = [build_coupling_sum(j, 4).to_dense() for j in (2, 3, 4)]
    combo = 1.0 * prefix_ops[0] + np.pi * prefix_ops[1] + np.e * prefix_ops[2]
    _, v = np.linalg.eigh(combo)
    path_to_h = {}
    for k in range(v.shape[1]):
        vec = v[:, k]
        seq = tuple(
            round(4 * np.real(np.vdot(vec, op @ vec))) / 4 for op in prefix_ops
        )
        hs = tuple(round(np.real(np.vdot(vec, op @ vec))) for op in coupling_ops)
        path_to_h[seq] = hs
    assert path_to_h[(2, 15 / 4, 2)] == (1, 2, -1)   # path (a)
    assert path_to_h[(2, 3 / 4, 2)] == (1, -1, 2)    # path (b)
    assert path_to_h[(0, 3 / 4, 2)] == (-1, 1, 2)    # path (c)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_coupling_sum_integer_spectrum_in_range(n):
    for j in range(2, n + 1):
        for lam in spectrum(build_coupling_sum(j, n)):
            assert abs(lam - round(lam)) < 1e-9
            assert -1 <= round(lam) <= j - 1


def _assert_spectrum(op, expected):
    got = spectrum(op)
    expected = sorted(set(expected))
    assert len(got) == len(expected)
    assert np.max(np.abs(np.array(got) - expected)) < 1e-12


def _spin_values(j, shift=0.0):
    """S(S+1) - shift for every total spin of j qubits."""
    return [(s / 2) * (s / 2 + 1) - shift for s in range(j % 2, j + 1, 2)]


@pytest.mark.parametrize("n", range(1, 9))
def test_spectrum_matches_analytic_spectra(n):
    _assert_spectrum(build_total_spin_squared(n), _spin_values(n))
    odd_shift = 0.75 if n % 2 else 0.0
    _assert_spectrum(total_spin_phase_unitary(n, spin_register_size(n)).operator,
                     _spin_values(n, odd_shift))
    for j in range(2, n + 1):
        _assert_spectrum(build_prefix_spin_squared(j, n), _spin_values(j))
        odd_shift = 0.75 if j % 2 else 0.0
        _assert_spectrum(prefix_spin_phase_unitary(j, n, spin_register_size(j)).operator,
                         _spin_values(j, odd_shift))
        # h + 1 for the spin increase (2S' + j - 1)/2 and decrease (j - 3 - 2S')/2
        # from every prefix spin 2S' of j - 1 qubits; a zero spin cannot decrease
        shifted = [(p + j - 1) // 2 + 1 for p in range((j - 1) % 2, j, 2)]
        shifted += [(j - 3 - p) // 2 + 1 for p in range((j - 1) % 2, j, 2) if p > 0]
        assert all(0 <= h <= j for h in shifted)
        _assert_spectrum(coupling_phase_unitary(j, n, min_ancillas("hj", j)).operator, shifted)


def test_spectrum_is_exact_beyond_the_dense_cap():
    assert spectrum(build_total_spin_squared(20)) == tuple(s * (s + 1) for s in range(11))


def test_spectrum_rejects_a_pair_set_of_no_spin_identity():
    with pytest.raises(ValueError, match="nested S\\^2"):
        spectrum(TranspositionSum(3, pairs=((0, 1), (1, 2))))


def test_step_operator_j2():
    op = build_step_operator(2, 2, 1)
    assert op.identity_coefficient == pytest.approx(1.0)
    assert op.pairs == ((0, 1),)
    assert op.denominator == pytest.approx(2.0)
    dense = op.to_dense()
    v = np.zeros(4)
    v[0] = 1.0  # |00> is symmetric: spin increase
    assert np.allclose(dense @ v, v)


def test_step_operator_on_singlet():
    dense = build_step_operator(2, 2, 1).to_dense()
    singlet = np.zeros(4, dtype=complex)
    singlet[1] = 1 / np.sqrt(2)
    singlet[2] = -1 / np.sqrt(2)
    assert np.linalg.norm(dense @ singlet) < 1e-12  # eigenvalue 0: decrease


def test_step_operator_rejects_zero_prefix_spin():
    with pytest.raises(ValueError):
        build_step_operator(2, 2, 0)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_step_operator_binary_on_prefix_eigenspaces(n):
    for j in range(2, n + 1):
        start = 1 if (j - 1) % 2 else 2
        for two_S_prev in range(start, j, 2):
            g = build_step_operator(j, n, two_S_prev).to_dense()
            if j == 2:
                basis = np.eye(1 << n)
            else:
                s_val = two_S_prev / 2 * (two_S_prev / 2 + 1)
                proj = eigen_oracle(build_prefix_spin_squared(j - 1, n)).projector_for(s_val)
                w, v = np.linalg.eigh(proj)
                basis = v[:, w > 0.5]
            eigs = np.linalg.eigvalsh(basis.conj().T @ g @ basis)
            assert all(min(abs(e), abs(e - 1)) < 1e-10 for e in eigs)


def test_hamming_weight_eigenvalues():
    op = build_hamming_weight(4)
    diag = np.real(np.diag(op.to_dense()))
    assert diag[0] == 0          # |0000>
    assert diag[15] == 4         # |1111>
    assert diag[5] == 2          # |0101>
    assert sorted(set(diag)) == [0, 1, 2, 3, 4]
    for n in range(1, 11):
        reference = [bin(i).count("1") for i in range(1 << n)]
        assert np.array_equal(build_hamming_weight(n).diagonal(), reference)


def test_transposition_involution_exact():
    for n in (2, 3, 4):
        for i, j in itertools.combinations(range(n), 2):
            p = TranspositionSum(num_qubits=n, pairs=((i, j),)).to_dense()
            assert np.array_equal(p @ p, np.eye(1 << n, dtype=complex))


def test_transposition_action_on_basis():
    p = TranspositionSum(num_qubits=2, pairs=((0, 1),)).to_dense()
    v = np.zeros(4)
    v[1] = 1.0  # qubit0=1, qubit1=0
    out = p @ v
    assert np.flatnonzero(out).tolist() == [2]


@st.composite
def transposition_sums(draw):
    n = draw(st.integers(1, 8))
    all_pairs = list(itertools.combinations(range(n), 2))
    pairs = draw(st.lists(st.sampled_from(all_pairs), unique=True)) if all_pairs else []
    identity = draw(st.floats(-3.0, 3.0, allow_nan=False))
    denominator = draw(st.floats(0.25, 8.0) | st.floats(-8.0, -0.25))
    return TranspositionSum(num_qubits=n, identity_coefficient=identity,
                            pairs=tuple(pairs), denominator=denominator)


@settings(deadline=None, max_examples=60)
@given(transposition_sums(), st.integers(0, 2**32 - 1))
def test_matrix_free_apply_matches_dense(op, seed):
    psi = random_state(op.num_qubits, np.random.default_rng(seed)).amplitudes
    before = psi.copy()
    got = op.apply(psi)
    scale = (abs(op.identity_coefficient) + len(op.pairs)) / abs(op.denominator)
    assert np.max(np.abs(got - op.to_dense() @ psi)) <= 1e-12 * max(scale, 1.0)
    assert np.array_equal(psi, before)  # the input is left untouched


def test_commutation_family():
    for n in (3, 4, 5, 6):
        mats = [build_prefix_spin_squared(j, n).to_dense() for j in range(2, n + 1)]
        mats.append(build_hamming_weight(n).to_dense())
        coupling = [build_coupling_sum(j, n).to_dense() for j in range(2, n + 1)]
        for a, b in itertools.combinations(mats, 2):
            assert np.max(np.abs(a @ b - b @ a)) < 1e-10
        for a, b in itertools.combinations(coupling, 2):
            assert np.max(np.abs(a @ b - b @ a)) < 1e-10


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_oracle_projectors_resolve_identity(n):
    ps = eigen_oracle(build_total_spin_squared(n))
    dim = 1 << n
    total = np.zeros((dim, dim), dtype=complex)
    for i, p in enumerate(ps.projectors):
        assert np.max(np.abs(p @ p - p)) < 1e-10
        for q in ps.projectors[i + 1 :]:
            assert np.max(np.abs(p @ q)) < 1e-10
        total += p
    assert np.max(np.abs(total - np.eye(dim))) < 1e-10


def test_oracle_capacity_error():
    from tqsf.errors import CapacityError

    big = TranspositionSum(num_qubits=13, pairs=((0, 12),))
    with pytest.raises(CapacityError):
        eigen_oracle(big)


def test_joint_projector_ranks_equal_degeneracy():
    # the weights of the basis states e_i are the diagonal of P_(S,M); they sum to its rank
    for n in (2, 3, 4, 5):
        basis = np.eye(1 << n, dtype=complex)
        for label in _spin_labels(n):
            trace = sum(project_SM(StateVector(e), label)[0] for e in basis)
            assert trace == pytest.approx(degeneracy(n, label.two_S), abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_project_sm_matches_the_masked_joint_projector(n):
    """The reference formula: P_S with rows and columns masked to one 1-count."""
    ps = eigen_oracle(build_total_spin_squared(n))
    weight = build_hamming_weight(n).diagonal()
    rng = np.random.default_rng(700 + n)
    for _ in range(3):
        state = random_state(n, rng)
        for label in _spin_labels(n):
            mask = (weight == (n - label.two_M) // 2).astype(np.float64)
            joint = ps.projector_for(label.S * (label.S + 1)) * np.outer(mask, mask)
            projected = joint @ state.amplitudes
            expected = float(np.real(np.vdot(state.amplitudes, projected)))
            amp, got = project_SM(state, label)
            assert abs(amp - expected) <= 1e-14
            assert got is not None
            assert np.max(np.abs(got.amplitudes - projected / np.sqrt(expected))) <= 1e-14


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_oracle_of_the_hamming_weight_is_the_weight_masks(n):
    op = build_hamming_weight(n)
    ps = eigen_oracle(op)
    assert ps.eigenvalues == tuple(float(k) for k in range(n + 1))
    for k, proj in zip(range(n + 1), ps.projectors):
        assert np.max(np.abs(proj - np.diag(op.diagonal() == k))) <= 1e-12


def test_oracle_singlet_projector_rank():
    ps = eigen_oracle(build_total_spin_squared(2))
    singlet = ps.projector_for(0.0)
    assert round(float(np.real(np.trace(singlet)))) == 1


def test_oracle_joint_binomial_amplitudes():
    """Hadamard state decomposes with binomial weights on maximal spin."""
    state = hadamard_state(4)
    for two_M, weight in [(4, 1 / 16), (2, 4 / 16), (0, 6 / 16), (-2, 4 / 16), (-4, 1 / 16)]:
        amp, projected = project_SM(state, SpinLabel(4, two_M))
        assert amp == pytest.approx(weight, abs=1e-12)
        assert projected is not None
    for two_S in (0, 2):
        for two_M in range(-two_S, two_S + 1, 2):
            amp, projected = project_SM(state, SpinLabel(two_S, two_M))
            assert amp == pytest.approx(0.0, abs=1e-12)
            assert projected is None


def test_oracle_degeneracy_ranks_n4():
    s2 = eigen_oracle(build_total_spin_squared(4))
    # rank of each (S, M) block = degeneracy; totals are degeneracy*(2S+1)
    assert round(np.real(np.trace(s2.projector_for(0.0)))) == 2
    assert round(np.real(np.trace(s2.projector_for(2.0)))) == 9


def test_project_sm_singlet_product():
    singlet = np.zeros(4, dtype=complex)
    singlet[1], singlet[2] = 1 / np.sqrt(2), -1 / np.sqrt(2)
    amps = np.kron(singlet, singlet)  # qubits (2,3) x (0,1): still two singlets
    state = StateVector(amps)
    amp, projected = project_SM(state, SpinLabel(0, 0))
    assert amp == pytest.approx(1.0, abs=1e-12)
    assert projected is not None


def test_project_sm_completeness():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5):
        state = random_state(n, rng)
        total = 0.0
        for two_S in range(n % 2, n + 1, 2):
            for two_M in range(-two_S, two_S + 1, 2):
                amp, _ = project_SM(state, SpinLabel(two_S, two_M))
                total += amp
        assert total == pytest.approx(1.0, abs=1e-10)


def test_degeneracy_values():
    assert degeneracy(4, 0) == 2
    assert degeneracy(4, 2) == 3
    assert degeneracy(4, 4) == 1
    assert degeneracy(2, 2) == 1
    assert degeneracy(2, 0) == 1
    assert degeneracy(6, 2) == 9


def test_degeneracy_matches_oracle_ranks():
    for n in (2, 3, 4, 5, 6):
        ps = eigen_oracle(build_total_spin_squared(n))
        for two_S in range(n % 2, n + 1, 2):
            s_val = two_S / 2 * (two_S / 2 + 1)
            rank = round(float(np.real(np.trace(ps.projector_for(s_val)))))
            assert rank == degeneracy(n, two_S) * (two_S + 1)


def test_degeneracy_invalid_label():
    with pytest.raises(ValueError):
        degeneracy(4, 1)
    with pytest.raises(ValueError):
        degeneracy(4, 6)


def test_min_ancillas_reference_sizes():
    assert min_ancillas("z", 4) == 3
    assert min_ancillas("s_even", 4) == 2
    assert min_ancillas("s_odd", 3) == 2
    assert min_ancillas("hj", 4) == 3


def test_min_ancillas_hj_avoids_aliasing():
    # 2 ancillas would wrap the shifted eigenvalue 4 (h=3) onto 0 (h=-1)
    for j in range(2, 7):
        r = min_ancillas("hj", j)
        values = {(h + 1) % (1 << r) for h in range(-1, j)}
        assert len(values) == j + 1


def test_min_ancillas_spin_registers_injective():
    for n in range(1, 9):
        kind = "s_even" if n % 2 == 0 else "s_odd"
        r = min_ancillas(kind, n)
        integers = [encode_total_spin(two_S, n) for two_S in range(n % 2, n + 1, 2)]
        assert len(set(m % (1 << r) for m in integers)) == len(integers)
        assert max(integers) < (1 << r)


def test_min_ancillas_rejects_bad_arguments():
    with pytest.raises(ValueError):
        min_ancillas("z", 0)
    with pytest.raises(ValueError):
        min_ancillas("hj", 1)
    with pytest.raises(ValueError):
        min_ancillas("s_even", 3)
    with pytest.raises(ValueError):
        min_ancillas("s_odd", 4)
    with pytest.raises(ValueError):
        min_ancillas("bogus", 4)


def test_decode_total_spin_even():
    assert decode_total_spin(3, 4) == 4   # S = 2
    assert decode_total_spin(1, 4) == 2   # S = 1
    assert decode_total_spin(0, 4) == 0


def test_decode_total_spin_odd():
    assert decode_total_spin(0, 3) == 1   # S = 1/2
    assert decode_total_spin(3, 3) == 3   # S = 3/2


def test_decode_total_spin_rejects_gaps():
    with pytest.raises(DecodeError):
        decode_total_spin(2, 4)  # not triangular
    with pytest.raises(DecodeError):
        decode_total_spin(1, 3)
    with pytest.raises(DecodeError):
        decode_total_spin(6, 4)  # would need 2S = 6 > n


def test_decode_inverts_encode_and_rejects_every_other_integer():
    for j in range(1, 21):
        spins = range(j % 2, j + 1, 2)
        encoded = {encode_total_spin(two_S, j): two_S for two_S in spins}
        assert len(encoded) == len(spins)
        for m in range(1 << spin_register_size(j)):
            if m in encoded:
                assert decode_total_spin(m, j) == encoded[m]
            else:
                with pytest.raises(DecodeError):
                    decode_total_spin(m, j)


def test_spin_register_sizes_match_closed_forms():
    # reference: closed forms of the largest register integer + 1, independent of the encoder
    for count in range(1, 41):
        k = count // 2
        kind, needed = (("s_even", k * (k + 1) // 2 + 1) if count % 2 == 0
                        else ("s_odd", k * (k + 2) + 1))
        assert min_ancillas(kind, count) == max(1, math.ceil(math.log2(needed)))


def test_spin_label_validation():
    with pytest.raises(ValueError):
        SpinLabel(2, 4)
    with pytest.raises(ValueError):
        SpinLabel(2, 1)
    SpinLabel(3, -1).validate_for(3)
    with pytest.raises(ValueError):
        SpinLabel(3, 1).validate_for(4)


def test_transposition_sum_validation():
    with pytest.raises(ValueError):
        TranspositionSum(num_qubits=2, pairs=((0, 0),))
    with pytest.raises(ValueError):
        TranspositionSum(num_qubits=2, pairs=((0, 1), (0, 1)))
    with pytest.raises(ValueError):
        TranspositionSum(num_qubits=2, pairs=((0, 3),))
