"""Classical surrogate descent for variational quantum energy landscapes.

Builds a truncated trigonometric model of a parameterized circuit's energy
from O(ν²) simulated queries, descends it with natural-gradient steps, and
benchmarks the result against conventional natural gradient under a
shot-noise model, with reproducible seeded traces.
"""

from .ansatz import (
    AnsatzCircuit,
    build_hardware_efficient,
    circuit_from_text,
    circuit_to_text,
    energy,
    energy_gradient,
    prepare_state,
)
from .descent import (
    DivergenceError,
    NoiseSpec,
    OptimizationTrace,
    OptimizerConfig,
    TraceRecord,
    cost_to_reach,
    feedback_check,
    one_minus_f,
    precision_policy,
    read_trace_csv,
    run_analytic_descent,
    run_natural_gradient,
    write_trace_csv,
)
from .metric import (
    MetricTensor,
    qfi_exact,
    qfi_surrogate_estimate,
    qfi_surrogate_eval,
    regularized_natural_direction,
)
from .pauli import (
    PauliString,
    PauliSum,
    format_pauli_sum,
    parse_pauli_sum,
    spin_ring_hamiltonian,
)
from .simulator import (
    GroundEnergyError,
    StateVector,
    expectation,
    ground_energy,
    hamiltonian_matrix,
    zero_state,
)
from .surrogate import (
    CircuitOracle,
    NoiseLevels,
    QueryPoint,
    SurrogateModel,
    TrustRegionError,
    estimate_coefficients,
    eval_energy,
    eval_gradient,
    extract_gradient_hessian,
    gradient_variance,
    gradient_variance_by_class,
    model_from_json,
    model_to_json,
    query_schedule,
)

__version__ = "0.1.0"

__all__ = [
    "AnsatzCircuit",
    "CircuitOracle",
    "DivergenceError",
    "GroundEnergyError",
    "MetricTensor",
    "NoiseLevels",
    "NoiseSpec",
    "OptimizationTrace",
    "OptimizerConfig",
    "PauliString",
    "PauliSum",
    "QueryPoint",
    "StateVector",
    "SurrogateModel",
    "TraceRecord",
    "TrustRegionError",
    "build_hardware_efficient",
    "circuit_from_text",
    "circuit_to_text",
    "cost_to_reach",
    "energy",
    "energy_gradient",
    "estimate_coefficients",
    "eval_energy",
    "eval_gradient",
    "expectation",
    "extract_gradient_hessian",
    "feedback_check",
    "format_pauli_sum",
    "gradient_variance",
    "gradient_variance_by_class",
    "ground_energy",
    "hamiltonian_matrix",
    "model_from_json",
    "model_to_json",
    "one_minus_f",
    "parse_pauli_sum",
    "precision_policy",
    "prepare_state",
    "qfi_exact",
    "qfi_surrogate_estimate",
    "qfi_surrogate_eval",
    "query_schedule",
    "read_trace_csv",
    "regularized_natural_direction",
    "run_analytic_descent",
    "run_natural_gradient",
    "spin_ring_hamiltonian",
    "write_trace_csv",
    "zero_state",
]
