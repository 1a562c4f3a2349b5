"""Circuit construction, energy function and gradients."""

import numpy as np
import pytest

from analytic_descent import (
    AnsatzCircuit,
    PauliString,
    build_hardware_efficient,
    energy,
    energy_gradient,
    parse_pauli_sum,
    prepare_state,
    qfi_exact,
    qfi_surrogate_estimate,
)
from analytic_descent.metric import energy_gradient_metric
from conftest import (
    dense_energy,
    dense_prepared_state,
    random_circuit,
    random_hamiltonian,
    shift_rule_gradient,
)


def test_parameter_counts_match_layer_arithmetic():
    # nu = N + 3*N*B
    assert build_hardware_efficient(6, 4).num_parameters == 78
    assert build_hardware_efficient(12, 2).num_parameters == 84
    assert build_hardware_efficient(8, 2).num_parameters == 56


def test_layer_structure():
    circuit = build_hardware_efficient(4, 2)
    gens = [g.letters for g in circuit.generators]
    assert gens[:4] == ["YIII", "IYII", "IIYI", "IIIY"]
    # each block: ring ZZ layer, X layer, Y layer
    for block in range(2):
        base = 4 + 12 * block
        for i in range(4):
            letters = gens[base + i]
            assert letters.count("Z") == 2
            sites = [q for q, c in enumerate(letters) if c == "Z"]
            assert sorted(sites) == sorted([i, (i + 1) % 4])
        assert all(g.count("X") == 1 for g in gens[base + 4 : base + 8])
        assert all(g.count("Y") == 1 for g in gens[base + 8 : base + 12])
    assert np.array_equal(circuit.theta_ref, np.zeros(28))


def test_build_rejects_bad_sizes():
    with pytest.raises(ValueError, match="N >= 2"):
        build_hardware_efficient(1, 1)
    with pytest.raises(ValueError, match=">= 1"):
        build_hardware_efficient(4, 0)


def test_circuit_validation():
    with pytest.raises(ValueError, match="at least one gate"):
        AnsatzCircuit(1, ())
    with pytest.raises(ValueError, match="acts on 2 qubits"):
        AnsatzCircuit(1, (PauliString("XX"),))
    with pytest.raises(ValueError, match="shape"):
        AnsatzCircuit(1, (PauliString("X"),), np.zeros(3))


def test_prepare_state_identity_at_zero():
    circuit = build_hardware_efficient(3, 1)
    psi = prepare_state(circuit, np.zeros(circuit.num_parameters))
    zero = np.zeros(8)
    zero[0] = 1.0
    assert np.allclose(psi.amplitudes, zero, atol=1e-15)


def test_prepare_state_single_rx():
    circuit = AnsatzCircuit(1, (PauliString("X"),))
    psi = prepare_state(circuit, [np.pi])
    assert np.allclose(psi.amplitudes, [0.0, -1.0j], atol=1e-15)


def test_gate_order_matters():
    forward = AnsatzCircuit(1, (PauliString("X"), PauliString("Z")))
    backward = AnsatzCircuit(1, (PauliString("Z"), PauliString("X")))
    theta = [np.pi / 2, np.pi / 2]
    a, b = (prepare_state(c, theta).amplitudes for c in (forward, backward))
    assert abs(np.vdot(a, b)) ** 2 < 1.0 - 1e-3


def test_prepare_state_matches_dense_oracle():
    rng = np.random.default_rng(101)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        circuit = random_circuit(rng, n, int(rng.integers(1, 9)))
        theta = rng.uniform(-np.pi, np.pi, circuit.num_parameters)
        got = prepare_state(circuit, theta).amplitudes
        assert np.max(np.abs(got - dense_prepared_state(circuit, theta))) < 1e-10


def test_prepare_state_length_mismatch():
    circuit = AnsatzCircuit(1, (PauliString("X"),))
    with pytest.raises(ValueError, match="expected 1 parameters"):
        prepare_state(circuit, [0.1, 0.2])


def test_energy_single_rx_is_cosine():
    h = parse_pauli_sum("1 Z")
    circuit = AnsatzCircuit(1, (PauliString("X"),))
    for theta in np.linspace(-2.0, 2.0, 7):
        assert abs(energy(circuit, [theta], h) - np.cos(theta)) < 1e-12


def test_energy_respects_reference_shift():
    h = parse_pauli_sum("1 Z")
    shifted = AnsatzCircuit(1, (PauliString("X"),), [np.pi / 4])
    for theta in np.linspace(-1.0, 1.0, 5):
        assert abs(energy(shifted, [theta], h) - np.cos(np.pi / 4 + theta)) < 1e-12


def test_energy_periodicity():
    rng = np.random.default_rng(113)
    circuit = random_circuit(rng, 3, 5)
    h = random_hamiltonian(rng, 3, 6)
    theta = rng.uniform(-1.0, 1.0, 5)
    base = energy(circuit, theta, h)
    for k in range(5):
        bumped = theta.copy()
        bumped[k] += 2.0 * np.pi
        assert abs(energy(circuit, bumped, h) - base) < 1e-10


def test_reference_shift_consistency():
    rng = np.random.default_rng(127)
    n, nu = 3, 6
    circuit = random_circuit(rng, n, nu)
    flat = AnsatzCircuit(n, circuit.generators)
    h = random_hamiltonian(rng, n, 5)
    theta = rng.uniform(-1.0, 1.0, nu)
    lhs = energy(circuit, theta, h)
    rhs = energy(flat, circuit.theta_ref + theta, h)
    assert abs(lhs - rhs) < 1e-12


def test_energy_matches_dense_oracle():
    rng = np.random.default_rng(131)
    for _ in range(8):
        n = int(rng.integers(2, 5))
        circuit = random_circuit(rng, n, 6)
        h = random_hamiltonian(rng, n, 5)
        theta = rng.uniform(-np.pi, np.pi, 6)
        assert abs(energy(circuit, theta, h) - dense_energy(circuit, theta, h)) < 1e-10


def test_adjoint_gradient_equals_shift_rule():
    """Dual route: one tangent sweep vs the literal 2nu-query protocol."""
    rng = np.random.default_rng(139)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        nu = int(rng.integers(2, 9))
        circuit = random_circuit(rng, n, nu)
        h = random_hamiltonian(rng, n, 6)
        theta = rng.uniform(-np.pi, np.pi, nu)
        adjoint = energy_gradient(circuit, theta, h)
        shifted = shift_rule_gradient(circuit, theta, h)
        assert np.max(np.abs(adjoint - shifted)) < 1e-12


def test_tangent_gradient_equals_shift_rule_at_one_parameter_and_near_pi():
    rng = np.random.default_rng(141)
    for _ in range(4):
        circuit = random_circuit(rng, 2, 1)
        h = random_hamiltonian(rng, 2, 4)
        theta = rng.uniform(-np.pi, np.pi, 1)
        gradient = energy_gradient(circuit, theta, h)
        assert np.max(np.abs(gradient - shift_rule_gradient(circuit, theta, h))) < 1e-12
    circuit = random_circuit(rng, 3, 5, spread=0.0)
    h = random_hamiltonian(rng, 3, 6)
    for edge in (np.pi - 1e-9, -np.pi + 1e-9, np.pi, -np.pi):
        theta = np.array([edge, -edge, edge, 0.5 * edge, -0.5 * edge])
        gradient = energy_gradient(circuit, theta, h)
        assert np.max(np.abs(gradient - shift_rule_gradient(circuit, theta, h))) < 1e-12


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(149)
    circuit = random_circuit(rng, 3, 6)
    h = random_hamiltonian(rng, 3, 6)
    theta = rng.uniform(-1.0, 1.0, 6)
    grad = energy_gradient(circuit, theta, h)
    eps = 1e-5
    for k in range(6):
        shift = np.zeros(6)
        shift[k] = eps
        fd = (energy(circuit, theta + shift, h) - energy(circuit, theta - shift, h)) / (
            2.0 * eps
        )
        assert abs(grad[k] - fd) < 1e-8


def test_single_axis_slices_are_three_point_exact():
    """E restricted to one axis is alpha + beta sin t + gamma cos t, so the
    three queries at t = 0, +-pi/2 determine the whole slice."""
    rng = np.random.default_rng(151)
    for _ in range(10):
        n = int(rng.integers(2, 5))
        nu = int(rng.integers(2, 8))
        circuit = random_circuit(rng, n, nu)
        h = random_hamiltonian(rng, n, 5)
        axis = int(rng.integers(nu))
        v = np.zeros(nu)
        v[axis] = 1.0
        e_plus = energy(circuit, 0.5 * np.pi * v, h)
        e_minus = energy(circuit, -0.5 * np.pi * v, h)
        alpha = 0.5 * (e_plus + e_minus)
        beta = 0.5 * (e_plus - e_minus)
        gamma = energy(circuit, 0.0 * v, h) - alpha
        for t in rng.uniform(-np.pi, np.pi, 20):
            want = alpha + beta * np.sin(t) + gamma * np.cos(t)
            assert abs(energy(circuit, t * v, h) - want) < 1e-9


def test_rebase_moves_reference():
    rng = np.random.default_rng(157)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 4)
    delta = rng.uniform(-1.0, 1.0, 4)
    moved = circuit.rebased(delta)
    assert moved.generators == circuit.generators
    assert np.array_equal(moved.theta_ref, circuit.theta_ref + delta)
    theta = rng.uniform(-1.0, 1.0, 4)
    assert abs(energy(moved, theta, h) - energy(circuit, delta + theta, h)) < 1e-12


def test_non_finite_angles_are_rejected_where_they_enter():
    with pytest.raises(ValueError, match="non-finite entries in theta_ref"):
        AnsatzCircuit(1, (PauliString("X"),), [np.nan])
    circuit = AnsatzCircuit(1, (PauliString("X"), PauliString("X")))
    with pytest.raises(ValueError, match="non-finite entries in delta"):
        circuit.rebased([0.1, np.inf])


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_theta_is_rejected_where_a_simulation_starts(bad):
    circuit = AnsatzCircuit(1, (PauliString("X"), PauliString("Y")))
    h = parse_pauli_sum("1 Z")
    calls = (
        lambda theta: prepare_state(circuit, theta),
        lambda theta: energy(circuit, theta, h),
        lambda theta: energy_gradient(circuit, theta, h),
        lambda theta: qfi_exact(circuit, theta),
        lambda theta: energy_gradient_metric(circuit, theta, h),
        lambda theta: qfi_surrogate_estimate(circuit, theta),
    )
    for call in calls:
        for theta in ([bad, 0.0], [0.0, bad]):
            with pytest.raises(ValueError, match="non-finite entries in theta"):
                call(theta)
