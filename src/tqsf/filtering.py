"""Total-spin filtering circuits: QFT, phase estimation, and the filter methods.

Three filters are provided, named after the CLI's method tokens:

* method A — joint phase estimation of the total spin and of the 1-count
  (S_z register); collapses the input onto a single (S, M) eigenstate.
* method B — one phase-estimation register per prefix length j = 2..n,
  reading either the prefix total spins (variant "s2j") or the pairwise
  coupling sums (variant "hj"); resolves the degenerate (S, M) sectors
  into individual spin-coupling paths.
* method C — sequential single-ancilla tests with classical feedback:
  one spin-increase/decrease bit per added qubit; minimal quantum
  resources, one sampled path per shot.  Its deferred variant replaces
  the feedback with history-controlled gates and recovers the exact path
  distribution from one coherent state, which deferred measurement builds
  from the sequential filter's path tree.

Joint states place the n system qubits at indices 0..n-1 followed by the
ancilla registers in the layout's declared order.  Methods A and B run each
block on the populated prefix: registers start in |0...0> and only their own
block touches them, so all weight sits in the leading 2^m amplitudes, m - 1
the highest qubit estimated so far; the view's norm check raises otherwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import AliasingError, CapacityError, DecodeError
from .evolution import (
    PhaseUnitary,
    _rotate,
    apply_controlled_phase_unitary,
    coupling_phase_unitary,
    prefix_spin_phase_unitary,
    total_spin_phase_unitary,
    z_phase_unitary,
)
from .spin import (
    SpinLabel,
    build_step_operator,
    decode_total_spin,
    encode_coupling,
    encode_total_spin,
    min_ancillas,
    spectrum,
    spin_register_size,
)
from .statevector import (
    MAX_QUBITS,
    PRUNE_TOL,
    Gate,
    StateVector,
    _distinct_qubits,
    _fix,
    _hadamard_wall,
    _marginal,
    _tensor,
    apply_gate,
    format_bits,
)

METHODS = ("a", "b-s2j", "b-hj", "c", "c-deferred")
DEFAULT_TROTTER_STEPS = 64
DEFAULT_SEED = 12345
# Largest worst-case path tree, in bytes, that `SequentialPathSampler` takes
# on: the tree must fit in memory, since each expanded node holds a state.
SAMPLER_MAX_BYTES = 1 << 30


@dataclass(frozen=True)
class RegisterLayout:
    """Disjoint qubit index sets: the system plus named ancilla registers."""

    num_system: int
    registers: tuple[tuple[str, tuple[int, ...]], ...]

    @property
    def system(self) -> tuple[int, ...]:
        return tuple(range(self.num_system))

    @property
    def total_qubits(self) -> int:
        return self.num_system + sum(len(qs) for _, qs in self.registers)

    def register(self, name: str) -> tuple[int, ...]:
        for reg_name, qubits in self.registers:
            if reg_name == name:
                return qubits
        raise KeyError(f"no register named {name!r}")

    def register_sizes(self) -> dict[str, int]:
        return {name: len(qubits) for name, qubits in self.registers}

    def ancilla_qubits(self) -> tuple[int, ...]:
        return tuple(q for _, qs in self.registers for q in qs)

    @classmethod
    def from_sizes(cls, num_system: int, sizes) -> "RegisterLayout":
        """Consecutive registers after the system qubits, from (name, size) pairs."""
        registers = []
        cursor = num_system
        for name, size in sizes:
            registers.append((name, tuple(range(cursor, cursor + size))))
            cursor += size
        return cls(num_system=num_system, registers=tuple(registers))


@dataclass(frozen=True)
class PathLabel:
    """Spin-coupling path: prefix spins 2*S_[j] for j = 1..n plus step bits.

    step_bits[i] is 1 when adding qubit i+1 increased the running total
    spin; the leftmost bit is the first coupling step.
    """

    two_S_sequence: tuple[int, ...]
    step_bits: tuple[int, ...]

    def __post_init__(self):
        seq = tuple(int(s) for s in self.two_S_sequence)
        bits = tuple(int(b) for b in self.step_bits)
        if not seq or seq[0] != 1 or len(bits) != len(seq) - 1:
            raise ValueError("path must start at 2S=1 with one bit per coupling step")
        for prev, cur, bit in zip(seq, seq[1:], bits):
            if cur < 0 or abs(cur - prev) != 1 or bit != int(cur > prev):
                raise ValueError(f"inconsistent path {seq} / bits {bits}")
        object.__setattr__(self, "two_S_sequence", seq)
        object.__setattr__(self, "step_bits", bits)

    @classmethod
    def from_bits(cls, bits) -> "PathLabel":
        seq = [1]
        for b in bits:
            seq.append(seq[-1] + (1 if b else -1))
        return cls(tuple(seq), tuple(int(b) for b in bits))

    @property
    def two_S_final(self) -> int:
        return self.two_S_sequence[-1]

    def bits_string(self) -> str:
        """Canonical rendering: leftmost = first step, 1 = increase."""
        return "".join(str(b) for b in self.step_bits)

    def reversed_bits_string(self) -> str:
        """Alternate rendering: 0 = increase, last step leftmost."""
        return "".join(str(1 - b) for b in reversed(self.step_bits))


@dataclass
class FilterOutcome:
    """One filtered branch: decoded label, Born weight, collapsed system state."""

    label: SpinLabel | PathLabel | None
    probability: float
    post_state: StateVector | None = field(repr=False, default=None)
    raw_bits: dict[str, str] = field(default_factory=dict)
    two_M: int | None = None


def layout_for(n: int, method: str) -> RegisterLayout:
    """Register layout for the given method, sized by min_ancillas."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {METHODS}")
    if method != "a" and n < 2:
        raise ValueError(f"method {method!r} requires n >= 2")
    if method == "a":
        sizes = [("z", min_ancillas("z", n)), ("S", spin_register_size(n))]
    elif method in ("b-s2j", "b-hj"):
        sizes = [("z", min_ancillas("z", n))] + [
            (f"path{j}", spin_register_size(j) if method == "b-s2j" else min_ancillas("hj", j))
            for j in range(2, n + 1)
        ]
    elif method == "c":
        sizes = [("test", 1)]
    else:  # c-deferred
        sizes = [(f"step{j}", 1) for j in range(2, n + 1)]
    layout = RegisterLayout.from_sizes(n, sizes)
    if layout.total_qubits > MAX_QUBITS:
        raise CapacityError(
            f"{layout.total_qubits} total qubits exceed the {MAX_QUBITS}-qubit exact-mode limit"
        )
    return layout


def _embed(state: StateVector, layout: RegisterLayout) -> StateVector:
    """System state tensored with |0...0> ancillas (system = low bits)."""
    if state.num_qubits != layout.num_system:
        raise ValueError("state size does not match layout system size")
    amps = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
    amps[: state.amplitudes.size] = state.amplitudes
    return StateVector(amps, copy=False)


def _extract_system(joint: StateVector, layout: RegisterLayout, outcome_bits: dict[int, int]) -> StateVector:
    """System amplitudes once every ancilla qubit has a definite bit."""
    sub = _fix(_tensor(joint.amplitudes, joint.num_qubits), outcome_bits).reshape(-1)
    norm = np.linalg.norm(sub)
    return StateVector(sub / norm, copy=False)


def qft(state: StateVector, register, inverse: bool = False) -> StateVector:
    """Quantum Fourier transform on a register (register[0] = LSB); in place."""
    register = tuple(int(q) for q in register)
    dim = 1 << len(register)
    x = np.arange(dim)
    omega = np.exp((-2j if inverse else 2j) * np.pi / dim)
    matrix = omega ** np.outer(x, x) / np.sqrt(dim)
    return apply_gate(state, Gate(matrix, register))


def _check_register(spec: PhaseUnitary, register_size: int) -> None:
    """Reject registers that alias the spectrum or break exact binary phases."""
    exact_phases = spec.mode == "exact"
    scale = (1 << register_size) * spec.alpha
    seen: dict[int, float] = {}
    for lam in spectrum(spec.operator):
        value = scale * lam
        m = int(round(value))
        if exact_phases and abs(value - m) > 1e-9:
            raise AliasingError(
                f"eigenvalue {lam} maps to non-integer register value {value}"
            )
        cell = m % (1 << register_size)
        if cell in seen:  # `spectrum` lists each eigenvalue once
            raise AliasingError(
                f"eigenvalues {seen[cell]} and {lam} collide on register integer {cell} "
                f"with {register_size} ancillas"
            )
        seen[cell] = lam
        if exact_phases and not 0 <= m < (1 << register_size):
            raise AliasingError(
                f"phase {spec.alpha * lam} of eigenvalue {lam} lies outside [0, 1)"
            )


def run_qpe(state: StateVector, register, spec: PhaseUnitary) -> StateVector:
    """Standard phase-estimation block: H wall, controlled powers, inverse QFT.

    After the block the register amplitudes encode the eigenphase integers;
    the operator spectrum is first verified to fit the register without
    aliasing (exact binary fractions in exact mode).  Acts on the whole of
    `state`; the methods pass a view of the populated prefix (`_estimate`).
    Exact mode rotates into the eigenbasis once and applies each power as a phase.
    """
    register = tuple(int(q) for q in register)
    _check_register(spec, len(register))
    op = spec.operator
    if spec.mode == "trotter":
        _hadamard_wall(state, register)
        for k, control in enumerate(register):
            apply_controlled_phase_unitary(spec, state, control, power=1 << k)
        return qft(state, register, inverse=True)
    _distinct_qubits(state, op.support + register)  # controls off the operator's qubits
    eigenvalues = _rotate(state, op, dict.fromkeys(register, 0))  # the wall copies the rest
    _hadamard_wall(state, register)
    t = _tensor(state.amplitudes, state.num_qubits)
    for k, control in enumerate(register):
        _fix(t, {control: 1})[...] *= np.exp(2j * np.pi * spec.alpha * (1 << k) * eigenvalues)
    qft(state, register, inverse=True)  # on the register alone: it commutes with the rotation
    _rotate(state, op, {}, back=True)
    return state


def _estimate(joint: StateVector, blocks) -> StateVector:
    """Run each (register, PhaseUnitary) block in order on the populated prefix of
    `joint`, in place; ancillas lie above the system, so registers bound the prefix."""
    top = 0
    for register, spec in blocks:
        top = max(top, max(register) + 1)
        run_qpe(StateVector(joint.amplitudes[: 1 << top], copy=False), register, spec)
    return joint


def register_bits(value: int, layout: RegisterLayout) -> dict[str, str]:
    """Split an ancilla integer into per-register bitstrings.

    The first register of the layout holds the lowest bits; each bitstring
    is written most-significant qubit first.
    """
    out = {}
    for name, qubits in layout.registers:
        width = len(qubits)
        out[name] = format_bits(value & ((1 << width) - 1), width)
        value >>= width
    return out


def _decode_path(raw_bits: dict[str, str], n: int, variant: str) -> PathLabel:
    """Coupling path from the s2j or hj registers, each the encoding of one step 2S' +- 1 >= 0."""
    seq = [1]
    for j in range(2, n + 1):
        m = int(raw_bits[f"path{j}"], 2)
        prev = seq[-1]
        steps = [two_S for two_S in (prev - 1, prev + 1) if two_S >= 0 and m == (
            encode_total_spin(two_S, j) if variant == "s2j" else encode_coupling(two_S, prev, j))]
        if not steps:
            raise DecodeError(f"path{j} read {m}, which encodes no step from 2S={prev}")
        seq.append(steps[0])
    return PathLabel(tuple(seq), tuple(int(b > a) for a, b in zip(seq, seq[1:])))


def _decode(raw_bits: dict[str, str], layout: RegisterLayout, method: str):
    """(label, 2M) for measured register bitstrings; raises DecodeError.

    2M is reported separately only for path labels read beside a z register;
    a spin label carries its own M.
    """
    n = layout.num_system
    if method in ("c", "c-deferred"):
        return PathLabel.from_bits([int(raw_bits[f"step{j}"]) for j in range(2, n + 1)]), None
    if method not in ("a", "b-s2j", "b-hj"):
        raise ValueError(f"unknown method {method!r}")
    k = int(raw_bits["z"], 2)
    if k > n:
        raise DecodeError(f"1-count register read {k} > n = {n}")
    two_M = n - 2 * k
    if method == "a":
        path, two_S = None, decode_total_spin(int(raw_bits["S"], 2), n)
    else:
        path = _decode_path(raw_bits, n, method[2:])
        two_S = path.two_S_final
    if abs(two_M) > two_S:
        raise DecodeError(f"|2M|={abs(two_M)} exceeds 2S={two_S}")
    if path is None:
        return SpinLabel(two_S, two_M), None
    return path, two_M


def _enumerate_register_outcomes(joint: StateVector, layout: RegisterLayout, probs: np.ndarray,
                                 method: str, mode: str):
    """Yield one decoded FilterOutcome per readout of nonzero weight in `probs`,
    the marginal over `layout.ancilla_qubits()`.

    In exact mode every readout decodes; in trotter mode the small weight
    leaked onto undecodable readouts is yielded under a None label.
    """
    ancillas = layout.ancilla_qubits()
    for outcome in np.flatnonzero(probs > PRUNE_TOL):
        outcome = int(outcome)
        raw = register_bits(outcome, layout)
        try:
            label, two_M = _decode(raw, layout, method)
        except DecodeError:
            if mode == "exact":
                raise
            label, two_M = None, None
        bits = {qb: (outcome >> i) & 1 for i, qb in enumerate(ancillas)}
        yield FilterOutcome(
            label=label,
            probability=float(probs[outcome]),
            post_state=_extract_system(joint, layout, bits),
            raw_bits=raw,
            two_M=two_M,
        )


def run_filter(
    state: StateVector,
    n: int,
    method: str,
    mode: str = "exact",
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
) -> tuple[StateVector, RegisterLayout, list[FilterOutcome], np.ndarray]:
    """The shared pipeline of the coherent methods: simulate once, then decode.

    Returns the pre-measurement joint state, its layout, the exact outcome
    table and the ancilla marginal it was read from, which shots sample.
    """
    if method == "a":
        joint, layout = method_a_final_state(state, n, mode, trotter_steps)
    elif method in ("b-s2j", "b-hj"):
        joint, layout = method_b_final_state(state, n, method[2:], mode, trotter_steps)
    elif method == "c-deferred":
        joint, layout = method_c_deferred_final_state(state, n)
    else:
        raise ValueError(f"method {method!r} has no single coherent circuit")
    probs = _marginal(joint, layout.ancilla_qubits())
    outcomes = list(_enumerate_register_outcomes(joint, layout, probs, method, mode))
    return joint, layout, outcomes, probs


def method_a_final_state(
    state: StateVector,
    n: int,
    mode: str = "exact",
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
) -> tuple[StateVector, RegisterLayout]:
    """Run the joint (S^2, S_z) filter circuit; returns the pre-measurement state."""
    layout = layout_for(n, "a")
    z, s = layout.register("z"), layout.register("S")
    blocks = [(z, z_phase_unitary(n, len(z))),
              (s, total_spin_phase_unitary(n, len(s), mode=mode, trotter_steps=trotter_steps))]
    return _estimate(_embed(state, layout), blocks), layout


def method_a(
    state: StateVector,
    n: int,
    mode: str = "exact",
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
) -> list[FilterOutcome]:
    """Filter on total spin and its z projection; one outcome per (S, M).

    Enumerates the exact joint register distribution.  In exact mode every
    register integer decodes; in trotter mode the small weight leaked onto
    undecodable integers is returned under a None label.
    """
    return run_filter(state, n, "a", mode, trotter_steps)[2]


def method_b_final_state(
    state: StateVector,
    n: int,
    variant: str,
    mode: str = "exact",
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
    layout: RegisterLayout | None = None,
) -> tuple[StateVector, RegisterLayout]:
    if variant not in ("s2j", "hj"):
        raise ValueError(f"unknown variant {variant!r}; expected 's2j' or 'hj'")
    if layout is None:
        layout = layout_for(n, f"b-{variant}")
    build = prefix_spin_phase_unitary if variant == "s2j" else coupling_phase_unitary
    z, paths = layout.register("z"), [layout.register(f"path{j}") for j in range(2, n + 1)]
    blocks = [(z, z_phase_unitary(n, len(z)))] + [
        (path, build(j, n, len(path), mode=mode, trotter_steps=trotter_steps))
        for j, path in enumerate(paths, 2)]
    return _estimate(_embed(state, layout), blocks), layout


def method_b(
    state: StateVector,
    n: int,
    variant: str,
    mode: str = "exact",
    trotter_steps: int = DEFAULT_TROTTER_STEPS,
) -> list[FilterOutcome]:
    """Path-resolved filter: one outcome per (coupling path, M).

    The post state of each outcome is a simultaneous eigenstate of every
    prefix total spin, i.e. a single state of the degenerate (S, M) sector.
    """
    return run_filter(state, n, f"b-{variant}", mode, trotter_steps)[2]


class SequentialPathSampler:
    """Sequential spin-path filter with classical feedback.

    Each shot walks j = 2..n: if the running spin is nonzero, a one-ancilla
    test of the step unitary is simulated and measured (collapsing the
    system); a zero running spin forces an increase with no quantum
    operation.  One walk serves every shot: it steps through a table of
    expanded nodes (increase probability, child ids) and simulates a node's
    test, through `_branch`, only the first time a shot reaches it.  The
    walk takes one uniform per non-forced step from a source it is given:
    `method_c_counts` reads one seeded stream in chunks, which yields the
    same doubles as drawing them one by one, so counts do not depend on
    the chunking, and the statistics equal those of independent simulations.
    """

    def __init__(self, state: StateVector, n: int):
        if state.num_qubits != n:
            raise ValueError("state size does not match n")
        layout_for(n, "c")  # rejects n < 2 and layouts above MAX_QUBITS
        # C(m, m//2) nodes at depth m - 1 when no branch is pruned or forced
        tree_bytes = sum(math.comb(m, m // 2) for m in range(1, n + 1)) * (16 << n)
        if tree_bytes > SAMPLER_MAX_BYTES:
            raise CapacityError(f"the {n}-qubit path tree may hold {tree_bytes / 2**30:.1f} "
                                f"GiB, above the {SAMPLER_MAX_BYTES / 2**30:g} GiB limit")
        self.n = n
        self._root = (state.copy(), 1)  # (system state, two_S)
        # The walk's node table. Node i is (step-bit prefix, (system, two_S));
        # edge i is None until the node is expanded, then (p_increase, child
        # id for bit 0, child id for bit 1). p_increase is None where a zero
        # spin forces the increase; a bit of no weight leads to the other child.
        self._nodes: list[tuple[tuple[int, ...], tuple]] = [((), self._root)]
        self._edges: list[tuple[float | None, int, int] | None] = [None]

    def _branch(self, prefix: tuple[int, ...], node):
        """Probability of the increase outcome and both collapsed children.

        The test of exp(i*pi*G), G = `build_step_operator(j, n, two_S)`, leaves
        (psi + exp(i*pi*G) psi)/2 on ancilla 0 and (psi - exp(i*pi*G) psi)/2 on
        ancilla 1.  On the states of the tree, whose first j-1 qubits carry
        spin two_S/2, G is a projector, so exp(i*pi*G) = I - 2G and the two
        branches are psi - G psi (decrease) and G psi (increase).
        """
        system, two_S = node
        psi = system.amplitudes
        increase = build_step_operator(len(prefix) + 2, self.n, two_S).apply(psi)
        branches = (psi - increase, increase)
        weights = [float(np.vdot(amps, amps).real) for amps in branches]
        children = {}
        for bit in (0, 1):
            if weights[bit] > PRUNE_TOL:
                collapsed = StateVector(branches[bit] / np.sqrt(weights[bit]), copy=False)
                children[bit] = (collapsed, two_S + (1 if bit else -1))
        return weights[1], children

    def _expand(self, i: int) -> tuple[float | None, int, int]:
        prefix, (system, two_S) = self._nodes[i]
        if two_S == 0:
            # zero prefix spin: the increase is forced, no circuit is run
            p_increase, children = None, {1: (system, 1)}
        else:
            p_increase, children = self._branch(prefix, (system, two_S))
        ids = {}
        for bit, child in children.items():
            ids[bit] = len(self._nodes)
            self._nodes.append((prefix + (bit,), child))
            self._edges.append(None)
        edge = (p_increase, ids.get(0, ids.get(1)), ids.get(1, ids.get(0)))
        self._edges[i] = edge
        return edge

    def _walk(self, draw) -> int:
        """Leaf id of one shot; `draw()` gives one uniform per non-forced step."""
        edges = self._edges
        i = 0
        for _ in range(self.n - 1):
            p_increase, lo, hi = edges[i] or self._expand(i)
            i = hi if p_increase is None or draw() < p_increase else lo
        return i

    def _leaf_weights(self) -> dict[int, float]:
        """Exact probability of every leaf of nonzero weight, by node id.

        Expands the whole tree; each leaf's weight is the product of its
        branch probabilities, taken from the root down.
        """
        level = {0: 1.0}
        for _ in range(self.n - 1):
            deeper = {}
            for i, prob in level.items():
                p_increase, lo, hi = self._edges[i] or self._expand(i)
                for child in {lo, hi}:
                    if p_increase is None:
                        deeper[child] = prob
                    else:
                        bit = self._nodes[child][0][-1]
                        deeper[child] = prob * (p_increase if bit else 1 - p_increase)
            level = deeper
        return level

    def path_probabilities(self) -> dict[PathLabel, float]:
        """Exact probability of every path of nonzero weight."""
        return {PathLabel.from_bits(self._nodes[i][0]): prob
                for i, prob in self._leaf_weights().items()}


# Generator.random(k) yields the same doubles as k calls of random(), so the
# chunk size changes no count; it only bounds the list of pending draws.
_UNIFORM_CHUNK = 4096


def _uniforms(rng: np.random.Generator):
    """The stream of rng.random() values, drawn a chunk at a time."""
    while True:
        yield from rng.random(_UNIFORM_CHUNK).tolist()


def method_c_counts(state: StateVector, n: int, shots: int, seed: int) -> dict[PathLabel, int]:
    """Aggregate `shots` sequential-filter shots into per-path counts."""
    if shots < 1:
        raise ValueError("shots must be >= 1")
    sampler = SequentialPathSampler(state, n)
    draw = _uniforms(np.random.default_rng(seed)).__next__
    leaves: dict[int, int] = {}
    for _ in range(shots):
        leaf = sampler._walk(draw)
        leaves[leaf] = leaves.get(leaf, 0) + 1
    return {PathLabel.from_bits(sampler._nodes[i][0]): c for i, c in leaves.items()}


def method_c_deferred_final_state(state: StateVector, n: int) -> tuple[StateVector, RegisterLayout]:
    """Pre-measurement state of the deferred sequential filter circuit.

    The circuit applies each step test controlled on the earlier step bits,
    so by deferred measurement the ancillas reading step bits b hold
    sqrt(P(b)) times the state that method C leaves after path b.  Every
    leaf of the sequential filter's fully expanded tree fills that slice;
    paths of no weight stay exactly zero.
    """
    layout = layout_for(n, "c-deferred")
    sampler = SequentialPathSampler(state, n)
    joint = np.zeros(1 << layout.total_qubits, dtype=np.complex128)
    t = _tensor(joint, layout.total_qubits)
    ancillas = layout.ancilla_qubits()  # ancillas[j - 2] reads step j
    for leaf, prob in sampler._leaf_weights().items():
        bits, (system, _) = sampler._nodes[leaf]
        slot = _fix(t, dict(zip(ancillas, bits)))
        slot[...] = np.sqrt(prob) * _tensor(system.amplitudes, n)
    return StateVector(joint, copy=False), layout


def method_c_deferred(state: StateVector, n: int) -> list[FilterOutcome]:
    """Coherent version of the sequential filter (deferred measurement).

    One ancilla per coupling step; every step's test unitary appears once
    per reachable spin history, selected by open/filled controls on the
    earlier ancillas.  All ancillas are measured at the end, so the exact
    path distribution comes from a single coherent state.
    """
    return run_filter(state, n, "c-deferred")[2]
