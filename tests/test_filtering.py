import sys
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tqsf.errors import AliasingError, CapacityError, DecodeError
from tqsf import filtering
from tqsf import evolution, spin, statevector
from tqsf.evolution import (
    PhaseUnitary,
    _evolve,
    apply_controlled_phase_unitary,
    coupling_phase_unitary,
    prefix_spin_phase_unitary,
    total_spin_phase_unitary,
    z_phase_unitary,
)
from tqsf.filtering import (
    PathLabel,
    RegisterLayout,
    SequentialPathSampler,
    _check_register,
    _decode,
    _embed,
    _estimate,
    _UNIFORM_CHUNK,
    layout_for,
    method_a,
    method_a_final_state,
    method_b,
    method_b_final_state,
    method_c_counts,
    method_c_deferred,
    method_c_deferred_final_state,
    qft,
    run_filter,
    run_qpe,
)
from tqsf.spin import (
    SpinLabel,
    TranspositionSum,
    build_hamming_weight,
    build_step_operator,
    build_total_spin_squared,
    eigen_oracle,
    project_SM,
)
from tqsf.states import hadamard_state, hadamard_x13_state, random_state
from tqsf.statevector import (
    HADAMARD,
    Gate,
    StateVector,
    _fix,
    _hadamard_wall,
    _tensor,
    apply_controlled,
    apply_gate,
    new_basis_state,
    outcome_distribution,
)

# Reference weights of the H^(x)4 X1 X3 |0> state, computed from the dense
# eigendecomposition oracle (joint prefix-spin and 1-count projectors).
X13_SPIN_WEIGHTS = {
    (4, 4): 1 / 16,
    (4, 0): 1 / 24,
    (4, -4): 1 / 16,
    (2, 2): 1 / 4,
    (2, -2): 1 / 4,
    (0, 0): 1 / 3,
}
X13_PATH_WEIGHTS = {
    ("111", 4): 1 / 16,
    ("111", 0): 1 / 24,
    ("111", -4): 1 / 16,
    ("110", 2): 1 / 12,
    ("110", -2): 1 / 12,
    ("101", 2): 1 / 24,
    ("101", -2): 1 / 24,
    ("011", 2): 1 / 8,
    ("011", -2): 1 / 8,
    ("100", 0): 1 / 12,
    ("010", 0): 1 / 4,
}


def spin_table(outcomes):
    return {(o.label.two_S, o.label.two_M): o.probability for o in outcomes}


def path_table(outcomes):
    return {(o.label.bits_string(), o.two_M): o.probability for o in outcomes}


# ---------------------------------------------------------------- QFT / QPE


def test_single_qubit_qft_is_hadamard():
    a = new_basis_state(1, "1")
    qft(a, [0])
    b = apply_gate(new_basis_state(1, "1"), Gate(HADAMARD, (0,)))
    assert np.max(np.abs(a.amplitudes - b.amplitudes)) < 1e-12


def test_qft_roundtrip():
    rng = np.random.default_rng(0)
    s = random_state(4, rng)
    before = s.amplitudes.copy()
    qft(s, [1, 2, 3])
    qft(s, [1, 2, 3], inverse=True)
    assert np.max(np.abs(s.amplitudes - before)) < 1e-12


def test_qpe_reads_exact_phase_deterministically():
    # |11> has 1-count 2: with a 2-bit register the readout is exactly 2
    n, r = 2, 2
    spec = z_phase_unitary(n, r)
    amps = np.zeros(1 << (n + r), dtype=complex)
    amps[3] = 1.0
    joint = StateVector(amps)
    run_qpe(joint, [2, 3], spec)
    d = outcome_distribution(joint, [2, 3])
    assert d == {"10": pytest.approx(1.0)}


def test_qpe_binomial_z_register():
    n = 4
    layout = layout_for(n, "a")
    spec = z_phase_unitary(n, len(layout.register("z")))
    amps = np.zeros(1 << layout.total_qubits, dtype=complex)
    amps[: 1 << n] = hadamard_state(n).amplitudes
    joint = StateVector(amps)
    run_qpe(joint, layout.register("z"), spec)
    d = outcome_distribution(joint, layout.register("z"))
    binom = {0: 1 / 16, 1: 4 / 16, 2: 6 / 16, 3: 4 / 16, 4: 1 / 16}
    for k, p in binom.items():
        assert d[format(k, "03b")] == pytest.approx(p, abs=1e-12)


def test_stacked_qpe_order_does_not_change_distribution():
    n = 4
    rng = np.random.default_rng(1)
    state = random_state(n, rng)
    layout = layout_for(n, "a")
    uz = z_phase_unitary(n, len(layout.register("z")))
    us = total_spin_phase_unitary(n, len(layout.register("S")))

    def run(order):
        amps = np.zeros(1 << layout.total_qubits, dtype=complex)
        amps[: 1 << n] = state.amplitudes
        joint = StateVector(amps)
        for name, spec in order:
            run_qpe(joint, layout.register(name), spec)
        return outcome_distribution(joint, layout.ancilla_qubits())

    d1 = run([("z", uz), ("S", us)])
    d2 = run([("S", us), ("z", uz)])
    assert set(d1) == set(d2)
    assert all(abs(d1[k] - d2[k]) < 1e-10 for k in d1)


def test_qpe_rejects_undersized_register():
    n = 4
    spec = z_phase_unitary(n, 2)  # 1-counts 0..4 do not fit 2 bits
    amps = np.zeros(1 << (n + 2), dtype=complex)
    amps[0] = 1.0
    with pytest.raises(AliasingError):
        run_qpe(StateVector(amps), [4, 5], spec)


# ------------------------------------------------------------------ layouts


@pytest.mark.parametrize("method", ["a", "b-s2j", "b-hj"])
def test_check_register_accepts_every_layout_size(method):
    checked = 0
    for n in range(1 if method == "a" else 2, 9):
        try:
            layout = layout_for(n, method)
        except CapacityError:
            continue
        sizes = layout.register_sizes()
        specs = {"z": z_phase_unitary(n, sizes["z"])}
        if method == "a":
            specs["S"] = total_spin_phase_unitary(n, sizes["S"])
        else:
            build = prefix_spin_phase_unitary if method == "b-s2j" else coupling_phase_unitary
            for j in range(2, n + 1):
                specs[f"path{j}"] = build(j, n, sizes[f"path{j}"])
        for name, spec in specs.items():
            _check_register(spec, sizes[name])
            checked += 1
    assert checked


def test_check_register_rejects_non_integer_register_values():
    # z_phase_unitary(2, 3) has alpha 1/8; on 2 ancillas eigenvalue 1 reads 0.5
    with pytest.raises(AliasingError, match="non-integer register value 0.5"):
        _check_register(z_phase_unitary(2, 3), 2)


def test_check_register_rejects_phases_outside_the_unit_interval():
    # the coupling sum of 2 qubits has eigenvalues -1 and 1; -1 reads -1
    spec = PhaseUnitary(spin.build_coupling_sum(2, 2), 0.25)
    with pytest.raises(AliasingError, match=r"outside \[0, 1\)"):
        _check_register(spec, 2)


def test_run_path_never_calls_the_oracle(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the dense oracle ran on the run path")

    modules = [m for name, m in sys.modules.items() if name.split(".")[0] == "tqsf"]
    for module in modules:
        if hasattr(module, "eigen_oracle"):
            monkeypatch.setattr(module, "eigen_oracle", refuse)
    # start cold, so cached unitaries cannot hide an oracle call
    for module in modules:
        for value in list(vars(module).values()):
            if hasattr(value, "cache_clear"):
                value.cache_clear()
    densified = defaultdict(int)
    dense_on_support = TranspositionSum.dense_on_support

    def counted(op):
        densified[op] += 1
        return dense_on_support(op)

    monkeypatch.setattr(TranspositionSum, "dense_on_support", counted)
    rng = np.random.default_rng(17)
    for n in (3, 4):
        state = random_state(n, rng)
        for method in ("a", "b-s2j", "b-hj", "c-deferred"):
            outcomes = run_filter(state, n, method)[2]
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)
        assert sum(method_c_counts(state, n, 200, seed=3).values()) == 200
    assert max(densified.values()) == 1  # each operator densified once


def test_layout_method_a_reference_sizes():
    layout = layout_for(4, "a")
    sizes = layout.register_sizes()
    assert sizes == {"z": 3, "S": 2}
    assert layout.total_qubits == 9


def test_layout_registers_disjoint():
    for method in ("a", "b-s2j", "b-hj", "c", "c-deferred"):
        layout = layout_for(4, method)
        seen = set(layout.system)
        for _, qubits in layout.registers:
            assert not seen & set(qubits)
            seen |= set(qubits)


def test_layout_capacity_guard():
    with pytest.raises(CapacityError):
        layout_for(6, "b-s2j")


# ----------------------------------------------------------------- method A


def test_method_a_hadamard_binomial():
    outs = method_a(hadamard_state(4), 4)
    table = spin_table(outs)
    expected = {(4, 4): 1 / 16, (4, 2): 4 / 16, (4, 0): 6 / 16, (4, -2): 4 / 16, (4, -4): 1 / 16}
    assert set(table) == set(expected)
    for key, p in expected.items():
        assert table[key] == pytest.approx(p, abs=1e-10)


def test_method_a_two_qubit_symmetric():
    outs = method_a(new_basis_state(2, "00"), 2)
    assert len(outs) == 1
    assert (outs[0].label.two_S, outs[0].label.two_M) == (2, 2)
    assert outs[0].probability == pytest.approx(1.0, abs=1e-12)


def test_method_a_x13_matches_oracle():
    outs = method_a(hadamard_x13_state(4), 4)
    table = spin_table(outs)
    assert set(table) == set(X13_SPIN_WEIGHTS)
    for key, p in X13_SPIN_WEIGHTS.items():
        assert table[key] == pytest.approx(p, abs=1e-10)


def test_method_a_oracle_equivalence_random_states():
    rng = np.random.default_rng(2)
    for n in (2, 3, 4, 5):
        state = random_state(n, rng)
        table = spin_table(method_a(state, n))
        for two_S in range(n % 2, n + 1, 2):
            for two_M in range(-two_S, two_S + 1, 2):
                amp, _ = project_SM(state, SpinLabel(two_S, two_M))
                assert table.get((two_S, two_M), 0.0) == pytest.approx(amp, abs=1e-8)


def test_method_a_funnel_eigenstates():
    n = 4
    state = hadamard_x13_state(n)
    s2 = build_total_spin_squared(n).to_dense()
    sz = n / 2 * np.eye(1 << n) - build_hamming_weight(n).to_dense()
    for o in method_a(state, n):
        psi = o.post_state.amplitudes
        s_val = o.label.S * (o.label.S + 1)
        assert np.linalg.norm(s2 @ psi - s_val * psi) < 1e-8
        assert np.linalg.norm(sz @ psi - o.label.M * psi) < 1e-8


def test_method_a_refilter_idempotent():
    state = hadamard_x13_state(4)
    for o in method_a(state, 4):
        again = spin_table(method_a(o.post_state, 4))
        key = (o.label.two_S, o.label.two_M)
        assert again[key] == pytest.approx(1.0, abs=1e-10)


def test_method_a_single_qubit():
    # one spin-1/2: S is fixed, only M varies
    outs = method_a(hadamard_state(1), 1)
    table = spin_table(outs)
    assert table == {
        (1, 1): pytest.approx(0.5, abs=1e-12),
        (1, -1): pytest.approx(0.5, abs=1e-12),
    }


def test_method_a_odd_qubit_count():
    rng = np.random.default_rng(77)
    state = random_state(5, rng)
    outs = method_a(state, 5)
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)
    for o in outs:
        assert o.label.two_S % 2 == 1  # half-integer total spin


def test_method_a_raw_bits_encode_registers():
    outs = method_a(hadamard_state(4), 4)
    for o in outs:
        k = (4 - o.label.two_M) // 2
        assert o.raw_bits["z"] == format(k, "03b")
        assert o.raw_bits["S"] == "11"  # S = 2 encodes as 3


def _register_tv(state, n, steps):
    exact = {tuple(sorted(o.raw_bits.items())): o.probability for o in method_a(state, n)}
    total, seen = 0.0, set()
    for o in method_a(state, n, "trotter", trotter_steps=steps):
        key = tuple(sorted(o.raw_bits.items()))
        total += abs(o.probability - exact.get(key, 0.0))
        seen.add(key)
    total += sum(p for key, p in exact.items() if key not in seen)
    return total / 2


def test_method_a_trotter_total_variation_at_64_steps():
    assert _register_tv(hadamard_x13_state(4), 4, 64) < 1e-3
    assert _register_tv(random_state(4, np.random.default_rng(909)), 4, 64) < 1e-3


def test_method_a_trotter_tv_decreases_with_steps():
    state = random_state(4, np.random.default_rng(31))
    tvs = [_register_tv(state, 4, steps) for steps in (8, 32, 128)]
    assert tvs[0] > tvs[1] > tvs[2]


def test_method_a_trotter_leakage_under_none_label():
    state = random_state(4, np.random.default_rng(1))
    outs = method_a(state, 4, "trotter", trotter_steps=16)
    leaked = [o for o in outs if o.label is None]
    assert leaked  # coarse steps leak weight onto undecodable registers
    assert sum(o.probability for o in outs) == pytest.approx(1.0, abs=1e-10)
    assert sum(o.probability for o in leaked) < 0.05


def test_method_a_trotter_exact_on_symmetric_state():
    # every transposition acts as identity on the fully symmetric state,
    # so the split evolution has nothing to approximate
    exact = spin_table(method_a(hadamard_state(4), 4))
    approx = spin_table(method_a(hadamard_state(4), 4, "trotter", trotter_steps=2))
    for key in exact:
        assert approx[key] == pytest.approx(exact[key], abs=1e-12)


# ----------------------------------------------------------------- method B


@pytest.mark.parametrize("variant", ["s2j", "hj"])
def test_method_b_x13_matches_oracle(variant):
    outs = method_b(hadamard_x13_state(4), 4, variant)
    table = path_table(outs)
    assert set(table) == set(X13_PATH_WEIGHTS)
    for key, p in X13_PATH_WEIGHTS.items():
        assert table[key] == pytest.approx(p, abs=1e-8)


def test_method_b_degeneracy_split_counts():
    outs = method_b(hadamard_x13_state(4), 4, "hj")
    by_sector = defaultdict(int)
    for o in outs:
        by_sector[(o.label.two_S_final, o.two_M)] += 1
    assert by_sector[(2, 2)] == 3
    assert by_sector[(2, -2)] == 3
    assert by_sector[(0, 0)] == 2


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_method_b_variants_agree(n):
    rng = np.random.default_rng(10 + n)
    state = random_state(n, rng)
    a = path_table(method_b(state, n, "s2j"))
    b = path_table(method_b(state, n, "hj"))
    assert set(a) == set(b)
    for key in a:
        assert a[key] == pytest.approx(b[key], abs=1e-10)


def test_method_b_variant_post_states_match_up_to_phase():
    state = hadamard_x13_state(4)
    a = {(o.label, o.two_M): o.post_state for o in method_b(state, 4, "s2j")}
    b = {(o.label, o.two_M): o.post_state for o in method_b(state, 4, "hj")}
    assert set(a) == set(b)
    for key in a:
        overlap = abs(np.vdot(a[key].amplitudes, b[key].amplitudes))
        assert overlap == pytest.approx(1.0, abs=1e-10)


def test_method_b_marginalizes_to_method_a():
    rng = np.random.default_rng(20)
    for n in (3, 4):
        state = random_state(n, rng)
        a_table = spin_table(method_a(state, n))
        marginal = defaultdict(float)
        for o in method_b(state, n, "hj"):
            marginal[(o.label.two_S_final, o.two_M)] += o.probability
        assert set(marginal) <= set(a_table) | set(marginal)
        for key in set(a_table) | set(marginal):
            assert marginal.get(key, 0.0) == pytest.approx(a_table.get(key, 0.0), abs=1e-10)


def test_method_b_path_memory():
    """Collapsed states are simultaneous eigenstates of every prefix spin."""
    from tqsf.spin import build_prefix_spin_squared

    n = 4
    state = hadamard_x13_state(n)
    prefix_dense = {j: build_prefix_spin_squared(j, n).to_dense() for j in range(2, n + 1)}
    for o in method_b(state, n, "s2j"):
        psi = o.post_state.amplitudes
        for j in range(2, n + 1):
            two_S = o.label.two_S_sequence[j - 1]
            val = two_S / 2 * (two_S / 2 + 1)
            assert np.linalg.norm(prefix_dense[j] @ psi - val * psi) < 1e-8


def test_method_b_unique_path_matches_method_a_state():
    """Non-degenerate sectors: the path state equals the joint-filter state."""
    n = 4
    state = hadamard_x13_state(n)
    a_states = {
        (o.label.two_S, o.label.two_M): o.post_state for o in method_a(state, n)
    }
    for o in method_b(state, n, "hj"):
        key = (o.label.two_S_final, o.two_M)
        if key in ((4, 4), (4, -4), (4, 0)):  # degeneracy 1
            overlap = abs(np.vdot(a_states[key].amplitudes, o.post_state.amplitudes))
            assert overlap == pytest.approx(1.0, abs=1e-10)


def test_method_b_sampled_histogram_matches_exact():
    from tqsf.filtering import method_b_final_state
    from tqsf.statevector import sample_counts

    state = hadamard_x13_state(4)
    joint, layout = method_b_final_state(state, 4, "hj")
    exact = outcome_distribution(joint, layout.ancilla_qubits())
    shots = 100_000
    counts = sample_counts(joint, layout.ancilla_qubits(), shots, seed=321)
    assert sum(counts.values()) == shots
    for bits, p in exact.items():
        sigma = np.sqrt(shots * p * (1 - p))
        assert abs(counts.get(bits, 0) - shots * p) < 3 * sigma


def test_hj_decoder_rejects_decrease_from_zero_spin():
    # trotter leakage: path2 reads a decrease to 2S=0, path3 a further decrease
    raw = {"z": "010", "path2": "00", "path3": "01", "path4": "010"}
    with pytest.raises(DecodeError):
        _decode(raw, layout_for(4, "b-hj"), "b-hj")[0]


def test_method_b_undersized_layout_raises():
    n = 4
    # the strict b-hj layout with only path4 shrunk to the loose log2(j-1) bound
    layout = RegisterLayout(
        num_system=n,
        registers=(("z", (4, 5, 6)), ("path2", (7, 8)), ("path3", (9, 10)), ("path4", (11, 12))),
    )
    with pytest.raises(AliasingError):
        method_b_final_state(hadamard_x13_state(n), n, "hj", layout=layout)


# --------------------------------------------------- populated-prefix blocks


def _descending_layout(n, method):
    """The default register sizes placed top down, each register's qubits reversed."""
    top = layout_for(n, method).total_qubits
    registers = []
    for name, size in layout_for(n, method).register_sizes().items():
        top -= size
        registers.append((name, tuple(reversed(range(top, top + size)))))
    return RegisterLayout(num_system=n, registers=tuple(registers))


def _full_state_reference(state, n, method, mode, steps, layout):
    """Embed, then every block's `run_qpe` on the full joint state."""
    joint = _embed(state, layout)
    z = layout.register("z")
    blocks = [(z, z_phase_unitary(n, len(z)))]
    if method == "a":
        s = layout.register("S")
        blocks.append((s, total_spin_phase_unitary(n, len(s), mode, steps)))
    else:
        build = prefix_spin_phase_unitary if method == "b-s2j" else coupling_phase_unitary
        for j in range(2, n + 1):
            path = layout.register(f"path{j}")
            blocks.append((path, build(j, n, len(path), mode, steps)))
    for register, spec in blocks:
        run_qpe(joint, register, spec)
    return joint.amplitudes


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["a", "b-s2j", "b-hj"]), st.integers(2, 5), st.integers(0, 3),
       st.booleans(), st.integers(0, 2**32 - 1))
@example("b-hj", 5, 0, True, 7)
@example("b-s2j", 4, 2, True, 8)
def test_prefix_blocks_match_full_state_blocks(method, n, steps, descending, seed):
    """steps = 0 is exact mode, 1..3 trotter mode with that many steps."""
    mode = "trotter" if steps else "exact"
    state = random_state(n, np.random.default_rng(seed))
    layout = None
    if method == "a":
        joint, layout = method_a_final_state(state, n, mode, steps or 1)
    else:
        if descending:
            layout = _descending_layout(n, method)
        joint, layout = method_b_final_state(state, n, method[2:], mode, steps or 1, layout)
    expected = _full_state_reference(state, n, method, mode, steps or 1, layout)
    assert np.array_equal(joint.amplitudes, expected)


def test_each_block_works_on_its_populated_prefix(monkeypatch):
    blocks = []
    qpe, apply_matrix = filtering.run_qpe, statevector._apply_matrix

    def spy_qpe(state, register, spec):
        blocks.append([state.num_qubits])
        return qpe(state, register, spec)

    def spy_apply_matrix(amps, num_qubits, *args):
        blocks[-1].append(num_qubits)
        return apply_matrix(amps, num_qubits, *args)

    monkeypatch.setattr(filtering, "run_qpe", spy_qpe)
    for module in (statevector, evolution):
        monkeypatch.setattr(module, "_apply_matrix", spy_apply_matrix)
    joint, layout = method_b_final_state(random_state(5, np.random.default_rng(3)), 5, "hj")
    assert layout.total_qubits == joint.num_qubits == 18
    assert [sorted(set(qubits)) for qubits in blocks] == [[8], [10], [12], [15], [18]]
    assert all(len(qubits) > 1 for qubits in blocks)  # each block reached _apply_matrix


def _per_power_qpe(state, register, spec):
    """Phase estimation with each controlled power applied whole: the circuit
    exact `run_qpe` must equal with its one rotation in and out."""
    _hadamard_wall(state, register)
    for k, control in enumerate(register):
        _evolve(spec, state, 1 << k, control)
    return qft(state, register, inverse=True)


def test_exact_qpe_hoists_the_rotation(monkeypatch):
    blocks = []  # (method, register size) of every block checked

    def checked_qpe(state, register, spec):
        expected = _per_power_qpe(state.copy(), register, spec).amplitudes
        run_qpe(state, register, spec)
        assert np.max(np.abs(state.amplitudes - expected)) <= 1e-12
        blocks.append((method, len(register)))
        return state

    monkeypatch.setattr(filtering, "run_qpe", checked_qpe)
    for n in range(2, 7):
        state = random_state(n, np.random.default_rng(140 + n))
        # registers: z and S^2 for a, z and every prefix S^2 or coupling sum for b-*;
        # b-* at n = 6 exceeds the 20-qubit cap
        for method in ("a", "b-s2j", "b-hj") if n <= 5 else ("a",):
            before = len(blocks)
            run_filter(state, n, method)
            layout = layout_for(n, method)
            assert blocks[before:] == [(method, len(qs)) for _, qs in layout.registers]


@pytest.mark.parametrize("register", [(3, 4), (5, 6)], ids=["on-support", "out-of-range"])
def test_exact_qpe_rejects_a_bad_register_before_rotating(register):
    spec = total_spin_phase_unitary(4, 2)
    state = StateVector(np.concatenate([random_state(4, np.random.default_rng(155)).amplitudes,
                                        np.zeros(48)]))
    before = state.amplitudes.copy()
    with pytest.raises(ValueError):
        run_qpe(state, register, spec)
    assert np.array_equal(state.amplitudes, before)


def test_exact_qpe_applies_no_per_power_factor(monkeypatch):
    calls = []
    apply_matrix = statevector._apply_matrix

    def spy_apply_matrix(amps, num_qubits, matrix, targets, *args):
        kind = "dense" if not isinstance(matrix, tuple) else (
            "real" if all(np.isrealobj(block) for _, block in matrix) else "complex")
        calls.append((kind, tuple(targets)))
        return apply_matrix(amps, num_qubits, matrix, targets, *args)

    for module in (statevector, evolution):
        monkeypatch.setattr(module, "_apply_matrix", spy_apply_matrix)
    n = 10
    layout = layout_for(n, "a")
    state = random_state(n, np.random.default_rng(150))

    def s_block():  # the z block's only call is its QFT
        return [(kind, targets == layout.register("S")) for kind, targets in calls
                if targets != layout.register("z")]

    method_a_final_state(state, n)
    # rotate in, the inverse QFT on the register, rotate out
    assert s_block() == [("real", False), ("dense", True), ("real", False)]
    calls.clear()
    method_a_final_state(state, n, "trotter", 2)
    # one fused factor per power, then the QFT
    assert s_block() == [("complex", False)] * len(layout.register("S")) + [("dense", True)]


def test_estimate_rejects_weight_above_the_populated_prefix():
    n = 3
    layout = layout_for(n, "b-hj")
    joint = _embed(random_state(n, np.random.default_rng(5)), layout)
    joint.amplitudes[:] *= np.sqrt(0.75)
    joint.amplitudes[-1] = 0.5  # weight 1/4 on the top qubit, which the z block does not reach
    z = layout.register("z")
    with pytest.raises(ValueError, match="norm"):
        _estimate(joint, [(z, z_phase_unitary(n, len(z)))])


# ----------------------------------------------------------------- method C


def test_method_c_symmetric_two_qubits():
    counts = method_c_counts(new_basis_state(2, "00"), 2, 100, seed=0)
    assert counts == {PathLabel.from_bits((1,)): 100}


def test_method_c_seed_reproducible():
    state = hadamard_x13_state(4)
    a = method_c_counts(state, 4, 2000, seed=42)
    b = method_c_counts(state, 4, 2000, seed=42)
    assert a == b


def test_method_c_final_spin_marginal_matches_method_a():
    state = hadamard_x13_state(4)
    shots = 100_000
    counts = method_c_counts(state, 4, shots, seed=99)
    by_spin = defaultdict(int)
    for path, c in counts.items():
        by_spin[path.two_S_final] += c
    a_marginal = defaultdict(float)
    for o in method_a(state, 4):
        a_marginal[o.label.two_S] += o.probability
    for two_S, p in a_marginal.items():
        sigma = np.sqrt(shots * p * (1 - p))
        assert abs(by_spin[two_S] - shots * p) < 3 * sigma


def test_method_c_path_frequencies_match_method_b():
    state = hadamard_x13_state(4)
    shots = 100_000
    counts = method_c_counts(state, 4, shots, seed=123)
    b_marginal = defaultdict(float)
    for o in method_b(state, 4, "hj"):
        b_marginal[o.label.bits_string()] += o.probability
    for bits, p in b_marginal.items():
        sigma = np.sqrt(shots * p * (1 - p))
        matching = sum(c for path, c in counts.items() if path.bits_string() == bits)
        assert abs(matching - shots * p) < 3 * sigma


def _reference_shot(sampler, rng):
    """The per-shot walk, the bit-level reference of the sampler's table walk.

    One rng.random() per level whose running spin is nonzero; a zero spin
    forces an increase without a draw, and a drawn child that carries no
    weight flips to the other child.
    """
    prefix, node = (), sampler._root
    for _ in range(2, sampler.n + 1):
        system, two_S = node
        if two_S == 0:
            bit, node = 1, (system, 1)
        else:
            p_increase, children = sampler._branch(prefix, node)
            bit = 1 if rng.random() < p_increase else 0
            if bit not in children:
                bit = 1 - bit
            node = children[bit]
        prefix += (bit,)
    return PathLabel.from_bits(prefix), node[0]


class _CountedDraws:
    """A generator's random() that counts its calls."""

    def __init__(self, seed):
        self.rng, self.count = np.random.default_rng(seed), 0

    def random(self):
        self.count += 1
        return self.rng.random()


def _reference_counts(state, n, shots, rng):
    sampler = SequentialPathSampler(state, n)
    counts = {}
    for _ in range(shots):
        path, _ = _reference_shot(sampler, rng)
        counts[path] = counts.get(path, 0) + 1
    return counts


def _assert_counts_match_reference(state, n, shots, seed):
    got = method_c_counts(state, n, shots, seed)
    expected = _reference_counts(state, n, shots, np.random.default_rng(seed))
    # same counts, and the paths in the order of their first shot
    assert list(got.items()) == list(expected.items())


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 6), st.integers(0, 2**32 - 1), st.integers(1, 400), st.integers(0, 2**32 - 1))
def test_method_c_counts_match_per_shot_reference_on_random_states(n, state_seed, shots, seed):
    state = random_state(n, np.random.default_rng(state_seed))
    _assert_counts_match_reference(state, n, shots, seed)


def _singlet_prefix_state(n):
    """(|01> - |10>)/sqrt(2) on qubits 0, 1 times |+...+>: the prefix spin hits 0."""
    singlet = np.array([0, 1, -1, 0]) / np.sqrt(2)
    plus = np.full(1 << (n - 2), 0.5 ** ((n - 2) / 2))
    return StateVector(np.kron(plus, singlet))


@pytest.mark.parametrize(
    "state, n, shots",
    [
        (hadamard_x13_state(4), 4, 3000),
        (new_basis_state(6, "000000"), 6, 500),  # every decrease carries no weight
        (_singlet_prefix_state(5), 5, 2000),  # step 3 is a forced increase
        (hadamard_x13_state(4), 4, 1),
    ],
)
def test_method_c_counts_match_per_shot_reference(state, n, shots):
    _assert_counts_match_reference(state, n, shots, seed=8)


@pytest.mark.parametrize(
    "shots", [_UNIFORM_CHUNK // 3, _UNIFORM_CHUNK // 3 + 1, 2 * _UNIFORM_CHUNK // 3 + 1, 4100]
)
def test_method_c_counts_match_reference_across_chunk_boundaries(shots):
    # qubits 0 and 1 in |++>: the first step always increases, so no spin
    # reaches 0 and every shot takes 3 draws; the shot counts end one draw
    # short of the first chunk, straddle it, and cross two and three chunks
    pair = np.full(4, 0.5)
    state = StateVector(np.kron(random_state(2, np.random.default_rng(70)).amplitudes, pair))
    draws = _CountedDraws(9)
    expected = _reference_counts(state, 4, shots, draws)
    assert draws.count == 3 * shots
    assert list(method_c_counts(state, 4, shots, seed=9).items()) == list(expected.items())


def test_sample_matches_per_shot_reference():
    state = random_state(5, np.random.default_rng(71))
    sampler, reference = SequentialPathSampler(state, 5), SequentialPathSampler(state, 5)
    rng, ref_rng = np.random.default_rng(10), np.random.default_rng(10)
    for _ in range(50):
        prefix, (system, _) = sampler._nodes[sampler._walk(rng.random)]
        path, post = _reference_shot(reference, ref_rng)
        assert PathLabel.from_bits(prefix) == path
        assert np.array_equal(system.amplitudes, post.amplitudes)
    assert rng.random() == ref_rng.random()  # both consumed the same draws


def test_sample_flips_a_drawn_branch_that_carries_no_weight():
    class Scripted:
        """Draws just below 1: every non-forced step draws a decrease."""

        def random(self):
            return np.nextafter(1.0, 0.0)

    # |000000> plus a singlet on qubits 0, 1 of weight 1e-13: the first
    # decrease carries 1e-13 <= PRUNE_TOL, so the drawn decrease is pruned
    amps = np.zeros(64, dtype=complex)
    amps[0] = np.sqrt(1 - 1e-13)
    amps[1], amps[2] = np.sqrt(0.5e-13), -np.sqrt(0.5e-13)
    state = StateVector(amps)
    sampler = SequentialPathSampler(state, 6)
    p_increase, children = sampler._branch((), sampler._root)
    assert p_increase < np.nextafter(1.0, 0.0) and set(children) == {1}
    prefix, (system, _) = sampler._nodes[sampler._walk(Scripted().random)]
    path, post = _reference_shot(SequentialPathSampler(state, 6), Scripted())
    assert PathLabel.from_bits(prefix) == path == PathLabel.from_bits((1,) * 5)
    assert np.array_equal(system.amplitudes, post.amplitudes)


def test_method_c_counts_builds_one_label_per_path(monkeypatch):
    built = []
    original = PathLabel.__post_init__
    monkeypatch.setattr(PathLabel, "__post_init__",
                        lambda self: built.append(1) or original(self))
    counts = method_c_counts(random_state(6, np.random.default_rng(72)), 6, 3000, seed=4)
    assert len(built) <= len(counts)


def test_method_c_counts_simulates_each_branch_once(monkeypatch):
    calls = defaultdict(int)
    original = SequentialPathSampler._branch

    def counted(self, prefix, node):
        calls[prefix] += 1
        return original(self, prefix, node)

    monkeypatch.setattr(SequentialPathSampler, "_branch", counted)
    method_c_counts(random_state(6, np.random.default_rng(73)), 6, 3000, seed=5)
    assert calls and max(calls.values()) == 1


def _expanded_nodes(state, n):
    """Every node of the fully expanded tree whose step test runs: (prefix, node, j)."""
    sampler = SequentialPathSampler(state, n)
    sampler._leaf_weights()
    for prefix, node in sampler._nodes:
        if len(prefix) < n - 1 and node[1] > 0:
            yield sampler, prefix, node, len(prefix) + 2


def _tree_states(n_max):
    """Random states, plus states whose tree holds forced and pruned steps."""
    for n in range(2, n_max + 1):
        yield random_state(n, np.random.default_rng(90 + n)), n
    yield hadamard_x13_state(4), 4
    yield _singlet_prefix_state(5), 5


def _hadamard_step_test(system, j, n, two_S):
    """Method C's step test as gates: H, controlled exp(i*pi*G), H on ancilla n.

    Returns the ancilla-0 and ancilla-1 halves of the joint state."""
    joint = StateVector(np.concatenate([system.amplitudes, np.zeros(1 << n)]))
    apply_gate(joint, Gate(HADAMARD, (n,)))
    spec = PhaseUnitary(build_step_operator(j, n, two_S), 0.5)
    apply_controlled_phase_unitary(spec, joint, n)
    apply_gate(joint, Gate(HADAMARD, (n,)))
    return joint.amplitudes.reshape(2, -1)


def test_branch_matches_gate_level_hadamard_test_on_every_node():
    checked = 0
    for state, n in _tree_states(6):
        for sampler, prefix, node, j in _expanded_nodes(state, n):
            system, two_S = node
            p_increase, children = sampler._branch(prefix, node)
            halves = _hadamard_step_test(system, j, n, two_S)
            weights = [float(np.vdot(h, h).real) for h in halves]
            assert abs(p_increase - weights[1]) <= 1e-12
            assert set(children) == {bit for bit in (0, 1) if weights[bit] > 1e-12}
            for bit, (child, child_two_S) in children.items():
                assert child_two_S == two_S + (1 if bit else -1)
                expected = halves[bit] / np.sqrt(weights[bit])
                assert np.max(np.abs(child.amplitudes - expected)) <= 1e-12
            checked += 1
    assert checked > 40


def test_increase_branch_lies_in_the_step_operators_unit_eigenspace():
    # on every node of the tree G is a projector: G(G psi) = G psi
    for state, n in _tree_states(8):
        for _, prefix, (system, two_S), j in _expanded_nodes(state, n):
            g = build_step_operator(j, n, two_S)
            up = g.apply(system.amplitudes)
            assert np.linalg.norm(g.apply(up) - up) <= 1e-12


def test_sequential_methods_run_no_dense_operator(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a dense operator was built for a sequential method")

    for module in (spin, evolution, filtering):
        for name in ("eigen_blocks", "_eigenbasis", "eigen_oracle"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(TranspositionSum, "to_dense", refuse)
    monkeypatch.setattr(TranspositionSum, "dense_on_support", refuse)
    for n in (2, 5, 8):
        state = random_state(n, np.random.default_rng(95 + n))
        assert sum(method_c_counts(state, n, 300, seed=n).values()) == 300
        outcomes = run_filter(state, n, "c-deferred")[2]
        assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-12)


def test_trotter_mode_runs_no_eigensolver(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("trotter mode diagonalised or densified an operator")

    for module in (spin, evolution):
        monkeypatch.setattr(module, "eigen_blocks", refuse)
    monkeypatch.setattr(evolution, "_eigenbasis", refuse)
    monkeypatch.setattr(spin, "eigen_oracle", refuse)
    monkeypatch.setattr(TranspositionSum, "to_dense", refuse)
    monkeypatch.setattr(TranspositionSum, "dense_on_support", refuse)
    evolution._trotter_blocks.cache_clear()  # cached blocks cannot hide a call
    for method in ("a", "b-s2j", "b-hj"):
        for n in range(2, 6):
            layout_for(n, method)  # every one fits the 20-qubit cap
            state = random_state(n, np.random.default_rng(120 + n))
            outcomes = run_filter(state, n, method, mode="trotter", trotter_steps=4)[2]
            assert sum(o.probability for o in outcomes) == pytest.approx(1.0, abs=1e-9)


def test_sampler_refuses_a_tree_above_the_byte_limit_before_copying(monkeypatch):
    state = random_state(6, np.random.default_rng(96))
    # 6 qubits: at most 1 + 2 + 3 + 6 + 10 + 20 = 42 nodes of 2^6 amplitudes
    monkeypatch.setattr(filtering, "SAMPLER_MAX_BYTES", 42 * 64 * 16)
    SequentialPathSampler(state, 6)
    monkeypatch.setattr(filtering, "SAMPLER_MAX_BYTES", 42 * 64 * 16 - 1)
    monkeypatch.setattr(StateVector, "copy", lambda self: pytest.fail("state was copied"))
    with pytest.raises(CapacityError, match="path tree"):
        SequentialPathSampler(state, 6)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_path_probabilities_match_method_b_marginal(n):
    state = random_state(n, np.random.default_rng(80 + n))
    marginal = defaultdict(float)
    for o in method_b(state, n, "hj"):
        marginal[o.label] += o.probability
    exact = SequentialPathSampler(state, n).path_probabilities()
    assert sum(exact.values()) == pytest.approx(1.0, abs=1e-12)
    for label in set(marginal) | set(exact):
        assert exact.get(label, 0.0) == pytest.approx(marginal.get(label, 0.0), abs=1e-10)


@pytest.mark.parametrize("run", [
    lambda state: method_c_counts(state, 1, 10, seed=0),
    lambda state: method_c_deferred(state, 1),
], ids=["method_c_counts", "method_c_deferred"])
def test_sequential_methods_reject_one_qubit(run):
    with pytest.raises(ValueError, match="requires n >= 2"):
        run(new_basis_state(1, "0"))


# -------------------------------------------------------- method C deferred


def test_deferred_n2_is_plain_hadamard_test():
    rng = np.random.default_rng(30)
    state = random_state(2, rng)
    outs = method_c_deferred(state, 2)
    # compare against the sequential sampler's exact branch probabilities
    sampler = SequentialPathSampler(state, 2)
    p_increase, _ = sampler._branch((), sampler._root)
    table = {o.label.bits_string(): o.probability for o in outs}
    assert table.get("1", 0.0) == pytest.approx(p_increase, abs=1e-12)
    assert table.get("0", 0.0) == pytest.approx(1 - p_increase, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_deferred_matches_sequential_tree(n):
    rng = np.random.default_rng(40 + n)
    state = random_state(n, rng)
    deferred = {o.label: o.probability for o in method_c_deferred(state, n)}

    # exact tree probabilities from the sequential protocol
    def walk(sampler, prefix, node, prob, out):
        j = len(prefix) + 2
        if j > n:
            out[PathLabel.from_bits(prefix)] = prob
            return
        _, two_S = node
        if two_S == 0:
            walk(sampler, prefix + (1,), (node[0], 1), prob, out)
            return
        p_inc, children = sampler._branch(prefix, node)
        for bit, child in children.items():
            walk(sampler, prefix + (bit,), child, prob * (p_inc if bit else 1 - p_inc), out)

    sampler = SequentialPathSampler(state, n)
    tree: dict = {}
    walk(sampler, (), sampler._root, 1.0, tree)
    assert set(deferred) == {k for k, v in tree.items() if v > 1e-12}
    for label, p in deferred.items():
        assert p == pytest.approx(tree[label], abs=1e-10)


def test_every_hadamard_wall_starts_on_a_fresh_register(monkeypatch):
    wall = filtering._hadamard_wall
    calls = defaultdict(int)

    def probe(state, qubits):
        t = _tensor(state.amplitudes, state.num_qubits)
        assert not any(np.any(_fix(t, {q: 1})) for q in qubits), qubits  # reads |0...0>
        calls[method] += 1
        return wall(state, qubits)

    monkeypatch.setattr(filtering, "_hadamard_wall", probe)
    for n in (2, 3, 4, 5):
        state = random_state(n, np.random.default_rng(70 + n))
        for method in ("a", "b-s2j", "b-hj"):
            run_filter(state, n, method)
    assert set(calls) == {"a", "b-s2j", "b-hj"}


def _history_controlled_circuit(state, n):
    """The deferred filter as gates, the reference of its joint state.

    Per step j: H on its ancilla; for each reachable history of the earlier
    step bits, exp(i*pi*G) from the dense oracle, controlled on that history
    and on the ancilla; H again.  G is the step operator of the history's
    prefix spin 2S', taken with 2S' = 0 too, where it is 1 on the prefix.
    """
    layout = layout_for(n, "c-deferred")
    ancillas = layout.ancilla_qubits()
    amps = np.zeros(1 << layout.total_qubits, dtype=complex)
    amps[: 1 << n] = state.amplitudes
    joint = StateVector(amps)
    histories = [((), 1)]
    for j in range(2, n + 1):
        apply_gate(joint, Gate(HADAMARD, (ancillas[j - 2],)))
        for bits, two_S in histories:
            g = TranspositionSum(num_qubits=n, identity_coefficient=(two_S + 3 - j) / 2,
                                 pairs=tuple((i, j - 1) for i in range(j - 1)),
                                 denominator=two_S + 1)
            oracle = eigen_oracle(g)
            unitary = sum(np.exp(1j * np.pi * lam) * p
                          for lam, p in zip(oracle.eigenvalues, oracle.projectors))
            apply_controlled(joint, ancillas[: j - 1], bits + (1,), Gate(unitary, range(n)))
        apply_gate(joint, Gate(HADAMARD, (ancillas[j - 2],)))
        histories = [(bits + (bit,), two_S + 2 * bit - 1)
                     for bits, two_S in histories for bit in (0, 1) if two_S + 2 * bit >= 1]
    return joint


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_deferred_joint_state_matches_history_controlled_circuit(n):
    states = [random_state(n, np.random.default_rng(65 + n))]
    if n == 5:
        states.append(_singlet_prefix_state(5))
    for state in states:
        got = method_c_deferred_final_state(state, n)[0].amplitudes
        expected = _history_controlled_circuit(state, n).amplitudes
        assert np.max(np.abs(got - expected)) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4])
def test_deferred_matches_method_b_marginal(n):
    rng = np.random.default_rng(50 + n)
    state = random_state(n, rng)
    marginal = defaultdict(float)
    for o in method_b(state, n, "hj"):
        marginal[o.label] += o.probability
    deferred = {o.label: o.probability for o in method_c_deferred(state, n)}
    assert set(deferred) == {k for k, v in marginal.items() if v > 1e-12}
    for label, p in deferred.items():
        assert p == pytest.approx(marginal[label], abs=1e-10)


def test_deferred_post_states_are_path_eigenstates():
    from tqsf.spin import build_prefix_spin_squared

    n = 3
    rng = np.random.default_rng(60)
    state = random_state(n, rng)
    for o in method_c_deferred(state, n):
        psi = o.post_state.amplitudes
        for j in range(2, n + 1):
            two_S = o.label.two_S_sequence[j - 1]
            val = two_S / 2 * (two_S / 2 + 1)
            dense = build_prefix_spin_squared(j, n).to_dense()
            assert np.linalg.norm(dense @ psi - val * psi) < 1e-8


# ----------------------------------------------------------------- decoding


def test_decode_method_a_examples():
    layout = layout_for(4, "a")
    label = _decode({"z": "010", "S": "11"}, layout, "a")[0]
    assert (label.two_S, label.two_M) == (4, 0)
    label = _decode({"z": "001", "S": "01"}, layout, "a")[0]
    assert (label.two_S, label.two_M) == (2, 2)


def test_decode_method_a_rejects_invalid():
    layout = layout_for(4, "a")
    with pytest.raises(DecodeError):
        _decode({"z": "000", "S": "10"}, layout, "a")[0]  # 2 not triangular
    with pytest.raises(DecodeError):
        _decode({"z": "000", "S": "00"}, layout, "a")[0]  # |M|=2 > S=0
    with pytest.raises(DecodeError):
        _decode({"z": "101", "S": "11"}, layout, "a")[0]  # k=5 > n


def test_decode_method_b_hj_path_b():
    # coupling sequence (+1, -1, +2) is path (b): bits 101
    layout = layout_for(4, "b-hj")
    raw = {
        "z": "010",
        "path2": format(1 + 1, "02b"),
        "path3": format(-1 + 1, "02b"),
        "path4": format(2 + 1, "03b"),
    }
    label = _decode(raw, layout, "b-hj")[0]
    assert label.bits_string() == "101"
    assert label.two_S_sequence == (1, 2, 1, 2)


def test_decode_method_b_s2j_sequences():
    layout = layout_for(4, "b-s2j")
    raw = {"z": "010", "path2": "1", "path3": "11", "path4": "01"}
    label = _decode(raw, layout, "b-s2j")[0]
    assert label.bits_string() == "110"  # path (a): spins 1, 3/2, 1


def test_decode_path_bits():
    layout = layout_for(4, "c-deferred")
    raw = {"step2": "1", "step3": "0", "step4": "1"}
    label = _decode(raw, layout, "c-deferred")[0]
    assert label.two_S_sequence == (1, 2, 1, 2)


def test_path_label_renderings():
    label = PathLabel.from_bits([1, 1, 0])  # path (a)
    assert label.bits_string() == "110"
    assert label.reversed_bits_string() == "100"
    assert label.two_S_final == 2


def test_path_label_validation():
    with pytest.raises(ValueError):
        PathLabel((1, 0, -1), (0, 0))
    with pytest.raises(ValueError):
        PathLabel((1, 2), (0,))
    with pytest.raises(ValueError):
        PathLabel((2, 1), (0,))
