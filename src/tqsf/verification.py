"""Cross-validation suite: circuits vs the dense eigendecomposition oracle.

Every check returns a named pass/fail record so the CLI can emit a
machine-readable report and name the first violated property.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import AliasingError
from .evolution import apply_swap_rotation
from .filtering import (
    DEFAULT_SEED,
    PathLabel,
    RegisterLayout,
    layout_for,
    method_a,
    method_b,
    method_b_final_state,
    method_c_counts,
    method_c_deferred,
)
from .spin import (
    SpinLabel,
    TranspositionSum,
    build_coupling_sum,
    build_hamming_weight,
    build_prefix_spin_squared,
    build_step_operator,
    build_total_spin_squared,
    degeneracy,
    eigen_oracle,
    project_SM,
    spectrum,
)
from .states import random_state


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        # checks compare numpy scalars; the report must stay JSON-serialisable
        self.passed = bool(self.passed)

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _spin_labels(n: int):
    for two_S in range(n % 2, n + 1, 2):
        for two_M in range(-two_S, two_S + 1, 2):
            yield SpinLabel(two_S, two_M)


def _swap_dense(n: int, i: int, j: int) -> np.ndarray:
    return TranspositionSum(num_qubits=n, pairs=((i, j),)).to_dense()


def check_swap_involution(n: int) -> Check:
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            p = _swap_dense(n, i, j)
            worst = max(worst, float(np.max(np.abs(p @ p - np.eye(1 << n)))))
    return Check(f"swap-involution-n{n}", worst == 0.0, f"max |P^2 - I| = {worst:g}")


def check_prefix_difference_identity(n: int) -> Check:
    """S^2_[j] - S^2_[j-1] = (5-2j)/4 I + coupling sum, as dense matrices."""
    worst = 0.0
    for j in range(2, n + 1):
        lhs = build_prefix_spin_squared(j, n).to_dense()
        if j > 2:
            lhs = lhs - build_prefix_spin_squared(j - 1, n).to_dense()
        else:
            lhs = lhs - 0.75 * np.eye(1 << n)
        rhs = (5 - 2 * j) / 4 * np.eye(1 << n) + build_coupling_sum(j, n).to_dense()
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    passed = worst < 1e-12
    return Check(f"prefix-difference-identity-n{n}", passed, f"max deviation = {worst:.2e}")


def check_swap_rotation_matches_exponential(n: int) -> Check:
    """cos/sin rotation formula vs the dense matrix exponential of the SWAP."""
    rng = np.random.default_rng(DEFAULT_SEED)
    worst = 0.0
    for alpha in (0.3, np.pi / 2, np.pi, 1.7):
        state = random_state(n, rng)
        p = _swap_dense(n, 0, n - 1)
        w, v = np.linalg.eigh(p)
        expm = (v * np.exp(1j * alpha * w)) @ v.conj().T
        expected = expm @ state.amplitudes
        got = apply_swap_rotation(state.copy(), alpha, 0, n - 1).amplitudes
        worst = max(worst, float(np.max(np.abs(got - expected))))
    return Check(
        f"swap-rotation-exponential-n{n}", worst < 1e-12, f"max deviation = {worst:.2e}"
    )


def check_spectra(n: int) -> Check:
    """Oracle eigenvalues of S^2 and each coupling sum equal the run path's `spectrum`."""
    s2 = build_total_spin_squared(n)
    details = [f"S^2 eigenvalues {tuple(round(e, 6) for e in eigen_oracle(s2).eigenvalues)}"]
    ok = True
    for op in [s2] + [build_coupling_sum(j, n) for j in range(2, n + 1)]:
        eigs, expected = eigen_oracle(op).eigenvalues, spectrum(op)
        if len(eigs) != len(expected) or max(abs(e - x) for e, x in zip(eigs, expected)) > 1e-9:
            ok = False
            details.append(f"eigenvalues {eigs} of pairs {op.pairs} differ from {expected}")
    return Check(f"operator-spectra-n{n}", ok, "; ".join(details))


def check_commutation(n: int) -> Check:
    ops = [build_prefix_spin_squared(j, n).to_dense() for j in range(2, n + 1)]
    ops.append(build_hamming_weight(n).to_dense())
    worst = 0.0
    for a in range(len(ops)):
        for b in range(a + 1, len(ops)):
            worst = max(worst, float(np.max(np.abs(ops[a] @ ops[b] - ops[b] @ ops[a]))))
    return Check(f"commuting-family-n{n}", worst < 1e-10, f"max commutator entry = {worst:.2e}")


def check_degeneracy(n: int) -> Check:
    ok = True
    details = []
    for two_S in range(n % 2, n + 1, 2):
        proj = eigen_oracle(build_total_spin_squared(n)).projector_for(
            two_S / 2 * (two_S / 2 + 1)
        )
        total_rank = int(round(float(np.real(np.trace(proj)))))
        expected = degeneracy(n, two_S) * (two_S + 1)
        if total_rank != expected:
            ok = False
            details.append(f"2S={two_S}: oracle rank {total_rank} != {expected}")
    return Check(f"degeneracy-counts-n{n}", ok, "; ".join(details) or "ranks match")


def check_step_operator_spectra(n: int) -> Check:
    """Restricted to a prefix-spin eigenspace, the step operator reads 0 or 1."""
    ok = True
    details = []
    for j in range(2, n + 1):
        prefix = (
            build_prefix_spin_squared(j - 1, n) if j > 2 else None
        )
        for two_S_prev in range(1 if (j - 1) % 2 else 2, j, 2):
            g = build_step_operator(j, n, two_S_prev).to_dense()
            if prefix is None:
                basis = np.eye(1 << n)
            else:
                s_val = two_S_prev / 2 * (two_S_prev / 2 + 1)
                try:
                    p = eigen_oracle(prefix).projector_for(s_val)
                except KeyError:
                    continue
                w, v = np.linalg.eigh(p)
                basis = v[:, w > 0.5]
            restricted = basis.conj().T @ g @ basis
            eigs = np.linalg.eigvalsh(restricted)
            stray = [e for e in eigs if min(abs(e), abs(e - 1)) > 1e-10]
            if stray:
                ok = False
                details.append(f"j={j}, 2S'={two_S_prev}: stray eigenvalues {stray[:3]}")
    return Check(f"step-operator-binary-n{n}", ok, "; ".join(details) or "spectra in {0, 1}")


def check_oracle_equivalence(n: int, num_states: int, seed: int = DEFAULT_SEED) -> Check:
    """Filter probabilities equal the analytic projector weights."""
    rng = np.random.default_rng(seed + n)
    worst = 0.0
    worst_total = 0.0
    for _ in range(num_states):
        state = random_state(n, rng)
        outcomes = {(o.label.two_S, o.label.two_M): o.probability for o in method_a(state, n)}
        total = sum(outcomes.values())
        worst_total = max(worst_total, abs(total - 1.0))
        for label in _spin_labels(n):
            amp, _ = project_SM(state, label)
            got = outcomes.get((label.two_S, label.two_M), 0.0)
            worst = max(worst, abs(got - amp))
    passed = worst < 1e-8 and worst_total < 1e-10
    return Check(
        f"oracle-equivalence-n{n}",
        passed,
        f"max |circuit - projector| = {worst:.2e}; max |sum - 1| = {worst_total:.2e}",
    )


def check_variant_equivalence(n: int, num_states: int, seed: int = DEFAULT_SEED) -> Check:
    rng = np.random.default_rng(seed + 100 + n)
    worst = 0.0
    for _ in range(num_states):
        state = random_state(n, rng)
        a = {(o.label, o.two_M): o.probability for o in method_b(state, n, "s2j")}
        b = {(o.label, o.two_M): o.probability for o in method_b(state, n, "hj")}
        for key in set(a) | set(b):
            worst = max(worst, abs(a.get(key, 0.0) - b.get(key, 0.0)))
    return Check(
        f"variant-equivalence-n{n}", worst < 1e-10, f"max distribution gap = {worst:.2e}"
    )


def _oracle_path_weights(state, n: int) -> dict[PathLabel, float]:
    """|P^(n)_{S_n} ... P^(2)_{S_2} psi|^2 of every path, by the oracle's prefix projectors."""
    level = [((), 1, state.amplitudes)]  # (step bits, 2S of the prefix, projected psi)
    for j in range(2, n + 1):
        projectors = eigen_oracle(build_prefix_spin_squared(j, n))
        level = [
            (bits + (bit,), two_S, projectors.projector_for(two_S / 2 * (two_S / 2 + 1)) @ psi)
            for bits, prev, psi in level
            for bit, two_S in ((0, prev - 1), (1, prev + 1))
            if two_S >= 0
        ]
    return {PathLabel.from_bits(bits): float(np.vdot(psi, psi).real) for bits, _, psi in level}


def check_deferred_matches_marginal(n: int, seed: int = DEFAULT_SEED) -> Check:
    """The coherent circuit reproduces the path weights of the dense oracle."""
    rng = np.random.default_rng(seed + 200 + n)
    state = random_state(n, rng)
    marginal = _oracle_path_weights(state, n)
    worst = 0.0
    for o in method_c_deferred(state, n):
        worst = max(worst, abs(marginal.pop(o.label, 0.0) - o.probability))
    worst = max([worst] + [abs(v) for v in marginal.values()])
    return Check(
        f"deferred-path-marginal-n{n}", worst < 1e-10, f"max path-weight gap = {worst:.2e}"
    )


def check_funnel(n: int, seed: int = DEFAULT_SEED) -> Check:
    """Collapsed states are eigenstates of S^2 and S_z with the decoded labels."""
    rng = np.random.default_rng(seed + 300 + n)
    state = random_state(n, rng)
    s2 = build_total_spin_squared(n).to_dense()
    sz = n / 2 * np.eye(1 << n) - build_hamming_weight(n).to_dense()
    worst = 0.0
    for o in method_a(state, n):
        psi = o.post_state.amplitudes
        s_val = o.label.S * (o.label.S + 1)
        worst = max(worst, float(np.linalg.norm(s2 @ psi - s_val * psi)))
        worst = max(worst, float(np.linalg.norm(sz @ psi - o.label.M * psi)))
    return Check(f"funnel-eigenstates-n{n}", worst < 1e-8, f"max residual = {worst:.2e}")


def check_refilter_idempotence(n: int, seed: int = DEFAULT_SEED) -> Check:
    rng = np.random.default_rng(seed + 400 + n)
    state = random_state(n, rng)
    worst = 0.0
    for o in method_a(state, n):
        again = method_a(o.post_state, n)
        repeat = sum(
            p.probability for p in again
            if (p.label.two_S, p.label.two_M) == (o.label.two_S, o.label.two_M)
        )
        worst = max(worst, abs(repeat - 1.0))
    return Check(
        f"refilter-idempotence-n{n}", worst < 1e-10, f"max |repeat prob - 1| = {worst:.2e}"
    )


def check_undersized_register_detected() -> Check:
    """The loose log2(j-1) coupling-register bound must trip the aliasing guard.

    Only the register for the last step j = n = 4 is shrunk: the loose bound
    gives 2 ancillas, merging the coupling eigenvalues -1 and 3 on cell 0.
    """
    n = j = 4
    state = random_state(n, np.random.default_rng(DEFAULT_SEED))
    sizes = layout_for(n, "b-hj").register_sizes()
    sizes[f"path{j}"] = max(1, int(np.floor(np.log2(j - 1))) + 1)
    layout = RegisterLayout.from_sizes(n, sizes.items())
    try:
        method_b_final_state(state, n, "hj", layout=layout)
    except AliasingError as exc:
        return Check("undersized-register-aliasing", True, str(exc))
    return Check(
        "undersized-register-aliasing", False, "no aliasing error raised for the loose bound"
    )


def check_sequential_final_spin(n: int, seed: int = DEFAULT_SEED) -> Check:
    """Sequential-filter final-spin frequencies over 20,000 shots vs the joint filter,
    at 4 sigma."""
    shots = 20000
    rng = np.random.default_rng(seed + 500 + n)
    state = random_state(n, rng)
    exact: dict = defaultdict(float)
    for o in method_a(state, n):
        exact[o.label.two_S] += o.probability
    counts: dict = defaultdict(int)
    for path, c in method_c_counts(state, n, shots, seed + 600 + n).items():
        counts[path.two_S_final] += c
    worst = 0.0
    for two_S, p in exact.items():
        sigma = max(np.sqrt(shots * p * (1 - p)), 1.0)
        worst = max(worst, abs(counts.get(two_S, 0) - shots * p) / sigma)
    return Check(
        f"sequential-final-spin-n{n}", worst < 4.0, f"max deviation = {worst:.2f} sigma"
    )


def run_verification(n_max: int, states_per_n: int = 10, seed: int = DEFAULT_SEED) -> dict:
    """Run the whole suite for n = 2..n_max; returns a machine-readable report."""
    if not 2 <= n_max <= 6:
        raise ValueError("n_max must be between 2 and 6")
    if states_per_n < 1:
        raise ValueError("states_per_n must be >= 1")
    checks: list[Check] = []
    for n in range(2, n_max + 1):
        checks.append(check_swap_involution(n))
        checks.append(check_prefix_difference_identity(n))
        checks.append(check_swap_rotation_matches_exponential(n))
        checks.append(check_spectra(n))
        checks.append(check_commutation(n))
        checks.append(check_degeneracy(n))
        checks.append(check_step_operator_spectra(n))
        checks.append(check_oracle_equivalence(n, states_per_n, seed))
        if n <= 5:
            # the prefix-spin register stack for n=6 exceeds the 20-qubit cap
            checks.append(check_variant_equivalence(n, min(states_per_n, 5), seed))
        checks.append(check_deferred_matches_marginal(n, seed))
        checks.append(check_funnel(n, seed))
        checks.append(check_refilter_idempotence(n, seed))
        if n >= 3:
            checks.append(check_sequential_final_spin(n, seed=seed))
    checks.append(check_undersized_register_detected())
    return {
        "n_max": n_max,
        "states_per_n": states_per_n,
        "seed": seed,
        "checks": [c.as_dict() for c in checks],
        "passed": all(c.passed for c in checks),
    }
