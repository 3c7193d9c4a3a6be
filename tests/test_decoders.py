"""Property tests for the register decoders shared by every filter method."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tqsf.errors import CapacityError, DecodeError
from tqsf.evolution import (
    coupling_phase_unitary,
    prefix_spin_phase_unitary,
    total_spin_phase_unitary,
    z_phase_unitary,
)
from tqsf.filtering import PathLabel, RegisterLayout, _decode, layout_for
from tqsf.spin import (
    SpinLabel,
    decode_total_spin,
    encode_coupling,
    encode_total_spin,
    min_ancillas,
    spectrum,
    spin_register_size,
)
from tqsf.statevector import format_bits


def coupling_paths(n):
    """Every prefix-spin sequence 2S_[1..n] reachable by coupling n qubits."""
    paths = [(1,)]
    for _ in range(2, n + 1):
        paths = [p + (p[-1] + d,) for p in paths for d in (1, -1) if p[-1] + d >= 0]
    return paths


def encode(seq, two_M, method):
    """Register bitstrings an exact readout of the path and 2M produces."""
    n = len(seq)
    if method == "c-deferred":
        return {f"step{j}": str(int(seq[j - 1] > seq[j - 2])) for j in range(2, n + 1)}
    raw = {"z": format_bits((n - two_M) // 2, min_ancillas("z", n))}
    for j in range(2, n + 1):
        prev, cur = seq[j - 2], seq[j - 1]
        if method == "b-s2j":
            raw[f"path{j}"] = format_bits(encode_total_spin(cur, j), spin_register_size(j))
        else:
            raw[f"path{j}"] = format_bits(encode_coupling(cur, prev, j), min_ancillas("hj", j))
    return raw


def layout_of(n, raw):
    return RegisterLayout.from_sizes(n, [(name, len(bits)) for name, bits in raw.items()])


ALL_PATHS = [(seq, two_M) for n in range(2, 7) for seq in coupling_paths(n)
             for two_M in range(-seq[-1], seq[-1] + 1, 2)]


@pytest.mark.parametrize("method", ["b-s2j", "b-hj", "c-deferred"])
def test_every_path_round_trips_through_its_registers(method):
    for seq, two_M in ALL_PATHS:
        expected = PathLabel(seq, tuple(int(b > a) for a, b in zip(seq, seq[1:])))
        raw = encode(seq, two_M, method)
        assert _decode(raw, layout_of(len(seq), raw), method)[0] == expected


def _spins(num_spins):
    return range(num_spins % 2, num_spins + 1, 2)


def _register_readouts(n, method):
    """(register size, spec, encoding image) of every register of the method's layout."""
    for name, qubits in layout_for(n, method).registers:
        r = len(qubits)
        if name == "z":
            yield r, z_phase_unitary(n, r), set(range(n + 1))
        elif name == "S":
            yield r, total_spin_phase_unitary(n, r), {encode_total_spin(s, n) for s in _spins(n)}
        elif method == "b-s2j":
            j = int(name[len("path"):])
            yield r, prefix_spin_phase_unitary(j, n, r), {encode_total_spin(s, j)
                                                           for s in _spins(j)}
        else:
            j = int(name[len("path"):])
            yield r, coupling_phase_unitary(j, n, r), {encode_coupling(p + d, p, j)
                                                        for p in _spins(j - 1)
                                                        for d in (-1, 1) if p + d >= 0}


@pytest.mark.parametrize("method", ["a", "b-s2j", "b-hj"])
def test_each_register_reads_the_encoding_its_decoder_expects(method):
    """{2^r * alpha * lambda} over the operator's spectrum is the image of the
    register's encoding, at every n <= 10 the 20-qubit cap admits."""
    sizes = []
    for n in range(1 if method == "a" else 2, 11):
        try:
            readouts = list(_register_readouts(n, method))
        except CapacityError:
            continue
        sizes.append(n)
        for r, spec, image in readouts:
            assert {(1 << r) * spec.alpha * lam for lam in spectrum(spec.operator)} == image
    assert sizes == list(range(1, 11) if method == "a" else range(2, 6))


def test_every_spin_label_round_trips_through_method_a_registers():
    for seq, two_M in ALL_PATHS:
        n, two_S = len(seq), seq[-1]
        raw = {"z": format_bits((n - two_M) // 2, min_ancillas("z", n)),
               "S": format_bits(encode_total_spin(two_S, n), spin_register_size(n))}
        assert _decode(raw, layout_of(n, raw), "a")[0] == SpinLabel(two_S, two_M)


@st.composite
def spin_and_count(draw):
    num_spins = draw(st.integers(1, 20))
    two_S = draw(st.sampled_from(range(num_spins % 2, num_spins + 1, 2)))
    return two_S, num_spins


@given(spin_and_count())
def test_total_spin_register_round_trip(case):
    two_S, num_spins = case
    assert decode_total_spin(encode_total_spin(two_S, num_spins), num_spins) == two_S


@st.composite
def step_bits(draw):
    """Valid step bits: a zero running spin can only increase."""
    bits, two_S = [], 1
    for _ in range(draw(st.integers(0, 19))):
        bit = 1 if two_S == 0 else draw(st.integers(0, 1))
        bits.append(bit)
        two_S += 1 if bit else -1
    return tuple(bits)


@given(step_bits())
def test_path_label_from_bits_round_trip(bits):
    label = PathLabel.from_bits(bits)
    assert label.step_bits == bits
    assert PathLabel.from_bits(label.step_bits) == label
    assert len(label.two_S_sequence) == len(bits) + 1


@st.composite
def arbitrary_readout(draw):
    """Any integers in the b-register widths, as trotter leakage can produce."""
    n = draw(st.integers(2, 6))
    method = draw(st.sampled_from(["b-s2j", "b-hj"]))
    sizes = [("z", min_ancillas("z", n))] + [
        (f"path{j}", spin_register_size(j) if method == "b-s2j" else min_ancillas("hj", j))
        for j in range(2, n + 1)
    ]
    raw = {name: format_bits(draw(st.integers(0, (1 << size) - 1)), size)
           for name, size in sizes}
    return n, method, raw


@settings(max_examples=300)
@given(arbitrary_readout())
def test_any_readout_decodes_or_raises_decode_error(case):
    n, method, raw = case
    try:
        label = _decode(raw, layout_of(n, raw), method)[0]
    except DecodeError:
        return
    assert min(label.two_S_sequence) >= 0
    assert encode(label.two_S_sequence, n - 2 * int(raw["z"], 2), method) == raw
