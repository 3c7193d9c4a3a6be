"""tqsf: statevector simulation of total-spin filtering circuits."""

from .errors import AliasingError, CapacityError, DecodeError
from .evolution import (
    PhaseUnitary,
    apply_controlled_phase_unitary,
    apply_swap_rotation,
)
from .filtering import (
    FilterOutcome,
    PathLabel,
    RegisterLayout,
    layout_for,
    method_a,
    method_b,
    method_c_counts,
    method_c_deferred,
    qft,
    run_filter,
    run_qpe,
)
from .spin import (
    HammingWeightOperator,
    ProjectorSet,
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
    min_ancillas,
    project_SM,
)
from .statevector import (
    Gate,
    StateVector,
    apply_controlled,
    apply_gate,
    new_basis_state,
    outcome_distribution,
    sample_counts,
)

__version__ = "0.1.0"
