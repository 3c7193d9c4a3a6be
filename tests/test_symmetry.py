"""Symmetry relations of the exact filters, up to the largest n each method runs.

S^2 = n(4-n)/4 + sum P_ij commutes with every qubit permutation, each prefix
S^2[j] (and so each coupling sum and step test) with the exchange P_01 of
qubits 0 and 1, and all of them with X^(x)n, which maps the 1-count k to
n - k. So, for any input psi:

* flip: X^(x)n psi, which is psi reversed, carries the weight of every
  (2S, 2M) or (path, 2M) cell to (2S, -2M) or (path, -2M); a table without
  M is unchanged;
* permutation: method a's table is unchanged under any qubit permutation of
  psi, and every path method's table under P_01.

No oracle is needed, so these reach the n the dense checks do not: a and
c-deferred at n = 10 and b-* at n = 5, where the layouts reach the 20-qubit
cap, and method c, through its exact `path_probabilities()`, at n = 12
(n = 13 runs too, but takes seconds and about 0.5 GiB).
"""

import numpy as np
import pytest

from tqsf.filtering import SequentialPathSampler, run_filter
from tqsf.spin import SpinLabel
from tqsf.states import random_state
from tqsf.statevector import StateVector

TOL = 1e-12
CASES = [(method, n) for method, top in
         [("a", 10), ("b-s2j", 5), ("b-hj", 5), ("c-deferred", 10), ("c", 12)]
         for n in (4, top)]


def _table(state: StateVector, n: int, method: str) -> dict:
    """Exact weights keyed by (label, 2M); 2M is None where the label holds it or none is read."""
    if method == "c":
        return {(path, None): p
                for path, p in SequentialPathSampler(state, n).path_probabilities().items()}
    return {(o.label, o.two_M): o.probability for o in run_filter(state, n, method)[2]}


def _flip_key(key):
    label, two_M = key
    if isinstance(label, SpinLabel):
        return SpinLabel(label.two_S, -label.two_M), None
    return label, None if two_M is None else -two_M


def _permuted(state: StateVector, perm) -> StateVector:
    """`state` with qubit k carrying what qubit perm[k] carried (qubit k on axis n-1-k)."""
    n = state.num_qubits
    axes = [n - 1 - perm[n - 1 - axis] for axis in range(n)]
    return StateVector(np.transpose(state.amplitudes.reshape((2,) * n), axes).reshape(-1))


def _assert_same_table(got: dict, expected: dict) -> None:
    for key in got.keys() | expected.keys():
        assert abs(got.get(key, 0.0) - expected.get(key, 0.0)) <= TOL, key


@pytest.mark.parametrize("method, n", CASES)
def test_flip_reverses_M_and_keeps_S_and_path(method, n):
    state = random_state(n, np.random.default_rng(n))
    table = _table(state, n, method)
    flipped = _table(StateVector(state.amplitudes[::-1]), n, method)
    _assert_same_table(flipped, {_flip_key(key): p for key, p in table.items()})


@pytest.mark.parametrize("method, n", CASES)
def test_qubit_permutation_keeps_the_table(method, n):
    state = random_state(n, np.random.default_rng(n))
    if method == "a":
        perm = np.random.default_rng(n).permutation(n).tolist()
    else:  # prefix spins only commute with the exchange of qubits 0 and 1
        perm = [1, 0, *range(2, n)]
    _assert_same_table(_table(_permuted(state, perm), n, method), _table(state, n, method))
