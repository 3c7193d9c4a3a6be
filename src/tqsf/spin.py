"""Spin operators as symbolic transposition sums, plus the dense oracle.

The total-spin operator of n spin-1/2 particles obeys the permutation-group
identity

    S^2 = n(4-n)/4 * I + sum_{i<j} P_ij,

where P_ij is the SWAP (transposition) of qubits i and j.  All operators in
this module are stored in that symbolic form, applied matrix-free
(`TranspositionSum.apply`) or densified on demand.  `spectrum` reads their
eigenvalues from the spin identities; exact synthesis diagonalises them by
1-count (`eigen_blocks`).  The dense eigendecomposition (`eigen_oracle`) is
used only by verification, as an independent check of the circuits;
`project_SM` reads an (S, M) weight from it as mask * (P_S @ (mask * psi)),
with P_S its S^2 projector and the mask selecting 1-count n/2 - M.

Spin quantum numbers are carried as integers 2S and 2M to keep half-integer
arithmetic exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np

from .errors import CapacityError, DecodeError
from .statevector import StateVector, _swapped, _tensor

ORACLE_MAX_QUBITS = 12
CLUSTER_TOL = 1e-8
EMPTY_COMPONENT_TOL = 1e-12
# Entries per lru_cache in the package. Repeated perfbench requests reach at
# most 30 distinct keys of one cache (`eigen_oracle` under `verify --n-max 6`,
# where `evolution._eigenbasis` and `eigen_blocks` hold 17 and `_sm_oracle` 5;
# 5 each under `sectors`), so a repeated request of those kinds never misses.
# `evolution._trotter_blocks` holds 9 keys under the `trotter` workload
# (5 for b-s2j n=4, 4 for a n=8, at 16 steps) and none under the others;
# methods c and c-deferred fill no cache.
CACHE_SIZE = 128


@dataclass(frozen=True)
class TranspositionSum:
    """Hermitian operator (c_I * I + sum_p P_{i_p j_p}) / denominator: unit pair
    weights, an identity shift c_I and one common denominator."""

    num_qubits: int
    identity_coefficient: float = 0.0
    pairs: tuple[tuple[int, int], ...] = ()
    denominator: float = 1.0

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("num_qubits must be >= 1")
        pairs = tuple((int(i), int(j)) for i, j in self.pairs)
        for i, j in pairs:
            if not 0 <= i < j < self.num_qubits:
                raise ValueError(f"invalid pair ({i}, {j}) for {self.num_qubits} qubits")
        if len(set(pairs)) != len(pairs):
            raise ValueError("pairs must be distinct")
        if self.denominator == 0:
            raise ValueError("denominator must be nonzero")
        object.__setattr__(self, "pairs", pairs)

    @property
    def support(self) -> tuple[int, ...]:
        """Qubits the non-identity part acts on."""
        return tuple(sorted({q for pair in self.pairs for q in pair}))

    def to_dense(self) -> np.ndarray:
        """Dense matrix on num_qubits qubits."""
        n = self.num_qubits
        if n > ORACLE_MAX_QUBITS:
            raise CapacityError(f"dense form of a {n}-qubit operator exceeds 2^{ORACLE_MAX_QUBITS}")
        dim = 1 << n
        out = np.zeros((dim, dim), dtype=np.complex128)
        np.fill_diagonal(out, self.identity_coefficient)
        idx = np.arange(dim)
        for i, j in self.pairs:
            out[_swap_indices(idx, i, j), idx] += 1
        out /= self.denominator
        return out

    def apply(self, amplitudes: np.ndarray) -> np.ndarray:
        """The operator times flat amplitudes over num_qubits qubits, as a new array;
        the counterpart of `to_dense`, with each transposition a view (`_swapped`)."""
        t = _tensor(amplitudes, self.num_qubits)
        out = self.identity_coefficient * t
        for i, j in self.pairs:
            out += _swapped(t, i, j)
        out /= self.denominator
        return out.reshape(-1)

    def dense_on_support(self) -> tuple[np.ndarray, tuple[int, ...]]:
        """Dense matrix over the support qubits only, with the support map."""
        support = self.support
        if not support:
            return (
                np.array([[self.identity_coefficient / self.denominator]], dtype=np.complex128),
                (),
            )
        rank = {q: r for r, q in enumerate(support)}
        remapped = replace(self, num_qubits=len(support),
                           pairs=tuple((rank[i], rank[j]) for i, j in self.pairs))
        return remapped.to_dense(), support


def _swap_indices(idx: np.ndarray, i: int, j: int) -> np.ndarray:
    bi = (idx >> i) & 1
    bj = (idx >> j) & 1
    return np.where(bi != bj, idx ^ ((1 << i) | (1 << j)), idx)


@dataclass(frozen=True)
class HammingWeightOperator:
    """Diagonal operator whose eigenvalue on a basis state is its 1-count."""

    num_qubits: int

    def diagonal(self) -> np.ndarray:
        return _weights(self.num_qubits).astype(np.float64)

    def to_dense(self) -> np.ndarray:
        return np.diag(self.diagonal()).astype(np.complex128)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(range(self.num_qubits))


def _weights(num_qubits: int) -> np.ndarray:
    """1-count of each basis index 0 .. 2^num_qubits - 1, built by doubling:
    the indices with the next qubit set weigh one more than those below."""
    weights = np.zeros(1, dtype=np.int64)
    for _ in range(num_qubits):
        weights = np.concatenate([weights, weights + 1])
    return weights


@dataclass(frozen=True)
class SpinLabel:
    """(2S, 2M) pair identifying a simultaneous total-spin / S_z eigenspace."""

    two_S: int
    two_M: int

    def __post_init__(self):
        if self.two_S < 0 or abs(self.two_M) > self.two_S:
            raise ValueError(f"invalid spin label (2S={self.two_S}, 2M={self.two_M})")
        if (self.two_S - self.two_M) % 2:
            raise ValueError("2S and 2M must have equal parity")

    def validate_for(self, n: int) -> None:
        if self.two_S > n or (n - self.two_S) % 2:
            raise ValueError(f"label 2S={self.two_S} invalid for {n} qubits")

    @property
    def S(self) -> float:
        return self.two_S / 2

    @property
    def M(self) -> float:
        return self.two_M / 2


@dataclass(frozen=True)
class ProjectorSet:
    """Spectral decomposition of a Hermitian operator: one projector per eigenvalue."""

    eigenvalues: tuple[float, ...]
    projectors: tuple[np.ndarray, ...]

    def projector_for(self, eigenvalue: float) -> np.ndarray:
        """The projector of the eigenvalue within 1e-6 of `eigenvalue`."""
        for lam, proj in zip(self.eigenvalues, self.projectors):
            if abs(lam - eigenvalue) <= 1e-6:
                return proj
        raise KeyError(f"no eigenvalue near {eigenvalue} in {self.eigenvalues}")


def build_total_spin_squared(n: int) -> TranspositionSum:
    """S^2 for n spin-1/2 qubits; eigenvalues S(S+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    pairs = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return TranspositionSum(
        num_qubits=n,
        identity_coefficient=n * (4 - n) / 4,
        pairs=pairs,
    )


def build_prefix_spin_squared(j: int, n: int) -> TranspositionSum:
    """S^2 restricted to qubits 0..j-1, embedded in the n-qubit space."""
    if not 2 <= j <= n:
        raise ValueError(f"prefix length {j} must satisfy 2 <= j <= n ({n})")
    pairs = tuple((a, b) for a in range(j) for b in range(a + 1, j))
    return TranspositionSum(
        num_qubits=n,
        identity_coefficient=j * (4 - j) / 4,
        pairs=pairs,
    )


def build_coupling_sum(j: int, n: int) -> TranspositionSum:
    """Sum of the j-1 transpositions exchanging qubit j-1 with each earlier qubit.

    Equals S^2_[j] - S^2_[j-1] - (5-2j)/4 * I; integer spectrum in [-1, j-1].
    """
    if not 2 <= j <= n:
        raise ValueError(f"prefix length {j} must satisfy 2 <= j <= n ({n})")
    pairs = tuple((i, j - 1) for i in range(j - 1))
    return TranspositionSum(num_qubits=n, pairs=pairs)


def build_step_operator(j: int, n: int, two_S_prev: int) -> TranspositionSum:
    """Spin-step indicator when coupling qubit j-1 to a prefix of known spin.

    G = ((2S' + 3 - j)/2 * I + sum_{i<j-1} P_{i,j-1}) / (2S' + 1).  On the
    subspace where qubits 0..j-2 carry total spin S' = two_S_prev/2, G is the
    projector onto the coupled spin S' + 1/2 (Löwdin, Rev. Mod. Phys. 36,
    966 (1964)): eigenvalue 1 for the spin-increase branch and 0 for the
    spin-decrease branch (S' - 1/2).
    """
    if not 2 <= j <= n:
        raise ValueError(f"prefix length {j} must satisfy 2 <= j <= n ({n})")
    if two_S_prev < 1:
        raise ValueError("two_S_prev must be >= 1; a zero-spin prefix forces an increase")
    if two_S_prev > j - 1 or (two_S_prev - (j - 1)) % 2:
        raise ValueError(f"two_S_prev={two_S_prev} is not a valid spin of {j - 1} qubits")
    pairs = tuple((i, j - 1) for i in range(j - 1))
    return TranspositionSum(n, (two_S_prev + 3 - j) / 2, pairs, denominator=two_S_prev + 1)


def build_hamming_weight(n: int) -> HammingWeightOperator:
    """Diagonal 1-count operator; decodes S_z as M = n/2 - weight."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return HammingWeightOperator(num_qubits=n)


@lru_cache(maxsize=CACHE_SIZE)
def eigen_oracle(op) -> ProjectorSet:
    """Full dense eigendecomposition with eigenvalues clustered at 1e-8.

    The brute-force reference every circuit in the package is checked
    against; capped at 2^12 dimensions.
    """
    if op.num_qubits > ORACLE_MAX_QUBITS:
        raise CapacityError(
            f"oracle limited to {ORACLE_MAX_QUBITS} qubits, got {op.num_qubits}"
        )
    dense = op.to_dense()
    w, v = np.linalg.eigh(dense)
    eigenvalues = []
    projectors = []
    i = 0
    while i < len(w):
        k = i
        while k + 1 < len(w) and w[k + 1] - w[i] < CLUSTER_TOL:
            k += 1
        block = v[:, i : k + 1]
        eigenvalues.append(float(np.mean(w[i : k + 1])))
        projectors.append(block @ block.conj().T)
        i = k + 1
    return ProjectorSet(tuple(eigenvalues), tuple(projectors))


@lru_cache(maxsize=CACHE_SIZE)
def eigen_blocks(op: TranspositionSum) -> tuple[tuple[np.ndarray, np.ndarray, np.ndarray], ...]:
    """(indices, eigenvalues, eigenvectors) of each 1-count block of the support matrix.

    The operator commutes with the 1-count, so its support matrix is
    block-diagonal over the basis states of each weight k; one `eigh` per
    block diagonalises it.
    """
    dense, support = op.dense_on_support()
    weights = _weights(len(support))
    blocks = []
    for k in range(len(support) + 1):
        idx = np.flatnonzero(weights == k)
        # a transposition sum is real symmetric; its real eigh is the cheaper one
        w, v = np.linalg.eigh(dense[np.ix_(idx, idx)].real)
        blocks.append((idx, w, v))
    return tuple(blocks)


def spectrum(op) -> tuple[float, ...]:
    """Distinct eigenvalues of the operator, exact and ascending, from the spin identities.

    Pairs joining each of m support qubits to every lower one, except among the lowest l,
    sum to S^2_[m] - S^2_[l] + (l(4-l) - m(4-m))/4: one value per spin 2P of l qubits and
    2S of m qubits with |2S - 2P| <= m - l. Any other pair set raises ValueError."""
    if isinstance(op, HammingWeightOperator):
        return tuple(float(k) for k in range(op.num_qubits + 1))
    m = len(op.support)
    l = m - len({b for _, b in op.pairs})  # support qubits paired with no lower one
    if len(op.pairs) != m * (m - 1) // 2 - l * (l - 1) // 2:  # reached only by the required set
        raise ValueError(f"pairs {op.pairs} are no difference of two nested S^2 on the support")
    return tuple(sorted({(op.identity_coefficient + (S * (S + 2) - P * (P + 2)
                                                     + l * (4 - l) - m * (4 - m)) / 4)
                         / op.denominator for P in range(l % 2, l + 1, 2)
                         for S in range(m % 2, m + 1, 2) if abs(S - P) <= m - l}))


@lru_cache(maxsize=CACHE_SIZE)
def _sm_oracle(n: int) -> tuple[ProjectorSet, np.ndarray]:
    """The S^2 projectors of n qubits and their 1-count table, built once per n."""
    return eigen_oracle(build_total_spin_squared(n)), _weights(n)


def project_SM(state: StateVector, label: SpinLabel) -> tuple[float, StateVector | None]:
    """Weight of `state` on the (S, M) eigenspace and the normalized projection.

    Returns (weight, None) when the component is empty (weight <= 1e-12).
    """
    n = state.num_qubits
    label.validate_for(n)
    projectors, weights = _sm_oracle(n)
    p_s = projectors.projector_for(label.S * (label.S + 1))
    mask = weights == (n - label.two_M) // 2
    projected = np.where(mask, p_s @ np.where(mask, state.amplitudes, 0), 0)
    amplitude = float(np.real(np.vdot(state.amplitudes, projected)))
    if amplitude <= EMPTY_COMPONENT_TOL:
        return max(amplitude, 0.0), None
    return amplitude, StateVector(projected / np.sqrt(amplitude), copy=False)


def degeneracy(n: int, two_S: int) -> int:
    """Dimension of each (S, M) eigenspace: C(n, n/2-S) - C(n, n/2-S-1)."""
    if two_S < 0 or two_S > n or (n - two_S) % 2:
        raise ValueError(f"2S={two_S} is not a valid total spin for {n} qubits")
    k = (n - two_S) // 2
    lower = math.comb(n, k - 1) if k >= 1 else 0
    return math.comb(n, k) - lower


def min_ancillas(kind: str, count: int) -> int:
    """Smallest register size giving every eigenphase a distinct binary fraction.

    kind 'z': 1-count register for `count` qubits (integers 0..n).
    kind 's_even'/'s_odd': total-spin register for an even/odd number of
    qubits, which reads the integers of `encode_total_spin`.
    kind 'hj': coupling register for prefix length j, which reads the integers 0..j
    of `encode_coupling` (the looser bound log2(j-1) aliases 0 and j, e.g. j=4).
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    if kind == "z":
        needed = count + 1
    elif kind in ("s_even", "s_odd"):
        if count % 2 != (kind == "s_odd"):
            raise ValueError(f"kind {kind!r} requires an {kind[2:]} count, got {count}")
        needed = encode_total_spin(count, count) + 1  # the top spin has the largest integer
    elif kind == "hj":
        if count < 2:
            raise ValueError("kind 'hj' requires count >= 2")
        needed = encode_coupling(count, count - 1, count) + 1  # the top step's integer
    else:
        raise ValueError(f"unknown register kind {kind!r}")
    return max(1, math.ceil(math.log2(needed)))


def spin_register_size(j: int) -> int:
    """Register size for a total-spin readout of j qubits (parity-dispatched)."""
    return min_ancillas("s_even" if j % 2 == 0 else "s_odd", j)


def encode_total_spin(two_S: int, num_spins: int) -> int:
    """Register integer produced by an exact spin readout of `two_S`.

    The one definition of the spin-register encoding: even qubit counts store
    S(S+1)/2, odd counts (S-1/2)(S+3/2); both start at 0 and grow with S.
    """
    if num_spins % 2 == 0:
        s = two_S // 2
        return s * (s + 1) // 2
    jj = (two_S - 1) // 2
    return jj * (jj + 2)


def decode_total_spin(m: int, num_spins: int) -> int:
    """The 2S that `encode_total_spin` maps to `m`, looked up over the spins
    `num_spins` qubits can have; raises DecodeError if there is none."""
    for two_S in range(num_spins % 2, num_spins + 1, 2):
        if encode_total_spin(two_S, num_spins) == m:
            return two_S
    raise DecodeError(f"register integer {m} encodes no total spin of {num_spins} qubits")


def encode_coupling(two_S: int, two_S_prev: int, j: int) -> int:
    """Register integer h + 1 of the coupling sum h = S(S+1) - S'(S'+1) - (5-2j)/4, read at
    step j from prefix spin 2S' = two_S_prev to 2S = two_S."""
    return (two_S * (two_S + 2) - two_S_prev * (two_S_prev + 2) + 2 * j - 1) // 4
