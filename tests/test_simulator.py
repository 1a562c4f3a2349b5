"""Statevector engine: gates, expectations, ground energies, tangent
vectors.  Every nontrivial value is cross-checked against the dense
matrix oracles in conftest."""

import gc
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analytic_descent import (
    AnsatzCircuit,
    CircuitOracle,
    NoiseSpec,
    OptimizerConfig,
    PauliString,
    PauliSum,
    StateVector,
    build_hardware_efficient,
    energy,
    energy_gradient,
    expectation,
    ground_energy,
    hamiltonian_matrix,
    parse_pauli_sum,
    prepare_state,
    qfi_exact,
    run_analytic_descent,
    run_natural_gradient,
    spin_ring_hamiltonian,
)
from analytic_descent import descent, pauli, simulator
from analytic_descent.metric import energy_gradient_metric
from analytic_descent.simulator import _state_and_tangents, _state_tangents_and_hessian
from conftest import (
    dense_hamiltonian,
    dense_prepared_state,
    pauli_matrix,
    random_circuit,
    random_hamiltonian,
    random_string,
)


def test_state_vector_rejects_unnormalized():
    with pytest.raises(ValueError):
        StateVector(1, np.array([1.0, 1.0], dtype=complex))


def test_state_vector_rejects_a_wrong_amplitude_count():
    with pytest.raises(ValueError, match=r"expected 4 amplitudes for 2 qubits, got shape \(2,\)"):
        StateVector(2, np.array([1.0, 0.0], dtype=complex))


def test_expectation_refuses_an_imaginary_residue():
    """Compiled patterns made non-Hermitian, diag(i, 0) in place of Z's,
    give ⟨0|H|0⟩ = i, which is refused rather than dropped to its real part."""
    h = parse_pauli_sum("1 Z")
    vars(h)["flip_patterns"] = ((None, np.array([1j, 0j])),)
    with pytest.raises(ValueError, match="imaginary residue 1.0"):
        expectation(StateVector(1, np.array([1.0, 0.0], dtype=complex)), h)


# Gates act only through circuits: a gate is checked as the last gate of a
# circuit against the same circuit without it.

_HEAD = (PauliString("YII"), PauliString("XZY"), PauliString("IZX"))


def _prepared(generators, angles):
    circuit = AnsatzCircuit(generators[0].num_qubits, generators, angles)
    return prepare_state(circuit, np.zeros(len(generators))).amplitudes


def test_rotation_identity_at_zero_angle():
    angles = [0.4, -1.1, 2.3]
    before = _prepared(_HEAD, angles)
    for letters in ("XYZ", "ZIZ"):
        after = _prepared(_HEAD + (PauliString(letters),), angles + [0.0])
        assert np.array_equal(after, before)


def test_rotation_x_pi_on_zero():
    out = _prepared((PauliString("X"),), [np.pi])
    assert np.allclose(out, [0.0, -1.0j], atol=1e-15)


def test_rotation_two_pi_is_minus_identity():
    angles = list(np.random.default_rng(5).uniform(-np.pi, np.pi, 3))
    before = _prepared(_HEAD, angles)
    for letters in ("ZZZ", "XYZ"):
        after = _prepared(_HEAD + (PauliString(letters),), angles + [2.0 * np.pi])
        assert np.allclose(after, -before, atol=1e-12)


def test_rotation_matches_matrix_exponential():
    """Prepared states vs expm(-i theta P / 2) gate by gate, N <= 4, with
    identity and diagonal generators among the random strings."""
    rng = np.random.default_rng(17)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        nu = int(rng.integers(1, 5))
        generators = tuple(random_string(rng, n, identity_ok=True) for _ in range(nu))
        circuit = AnsatzCircuit(n, generators, rng.uniform(-np.pi, np.pi, nu))
        theta = rng.uniform(-np.pi, np.pi, nu)
        got = prepare_state(circuit, theta).amplitudes
        assert np.max(np.abs(got - dense_prepared_state(circuit, theta))) < 1e-10


def test_rotation_dimension_mismatch():
    with pytest.raises(ValueError, match="circuit declares 2"):
        AnsatzCircuit(2, (PauliString("X"),))


def test_apply_pauli_string_matches_matrix():
    """The signed-permutation kernel that every gate reads: P·amps is
    amps[src]·phase."""
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = int(rng.integers(1, 5))
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        string = random_string(rng, n, identity_ok=True)
        src, phase = pauli._pauli_kernel(string.letters)
        got = amps.take(src) * phase
        assert np.max(np.abs(got - pauli_matrix(string.letters) @ amps)) < 1e-12


def test_norm_preserved_under_long_sequences():
    rng = np.random.default_rng(31)
    generators = tuple(random_string(rng, 10) for _ in range(200))
    circuit = AnsatzCircuit(10, generators, rng.uniform(-np.pi, np.pi, 200))
    psi = prepare_state(circuit, np.zeros(200))
    assert abs(np.linalg.norm(psi.amplitudes) - 1.0) < 1e-9


def test_expectation_zero_state_z():
    assert expectation(StateVector(1, [1.0, 0.0]), parse_pauli_sum("1 Z")) == 1.0


def test_expectation_rx_slice_is_cosine():
    h = parse_pauli_sum("1 Z")
    rx = AnsatzCircuit(1, (PauliString("X"),))
    for theta in np.linspace(-np.pi, np.pi, 9):
        assert abs(expectation(prepare_state(rx, [theta]), h) - np.cos(theta)) < 1e-12


def test_expectation_identity_term_is_constant():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    amps /= np.linalg.norm(amps)
    h = PauliSum(2, ((0.75, PauliString("II")),))
    assert abs(expectation(StateVector(2, amps), h) - 0.75) < 1e-12


def test_expectation_matches_dense_quadratic_form():
    rng = np.random.default_rng(41)
    for _ in range(15):
        n = int(rng.integers(1, 5))
        amps = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
        amps /= np.linalg.norm(amps)
        h = random_hamiltonian(rng, n, 6)
        want = float(np.real(amps.conj() @ dense_hamiltonian(h) @ amps))
        assert abs(expectation(StateVector(n, amps), h) - want) < 1e-10


def test_overlap_properties():
    """|⟨ψ|RX(θ)ψ⟩|² = cos²(θ/2) between prepared states, in either order."""
    rx = AnsatzCircuit(1, (PauliString("X"),))
    psi = np.array([1.0, 0.0], dtype=complex)
    assert abs(np.vdot(psi, prepare_state(rx, [np.pi]).amplitudes)) < 1e-14
    for theta in (0.3, 1.1, 2.5):
        rotated = prepare_state(rx, [theta]).amplitudes
        want = np.cos(theta / 2.0) ** 2
        assert abs(abs(np.vdot(psi, rotated)) ** 2 - want) < 1e-12
        assert abs(abs(np.vdot(rotated, psi)) ** 2 - want) < 1e-12


def test_hamiltonian_matrix_matches_dense():
    rng = np.random.default_rng(53)
    h = random_hamiltonian(rng, 3, 8)
    assert np.max(np.abs(hamiltonian_matrix(h) - dense_hamiltonian(h))) < 1e-14


def test_hamiltonian_matrix_rejects_more_than_ten_qubits():
    h = PauliSum(11, ((1.0, PauliString("Z" * 11)),))
    with pytest.raises(ValueError, match="dense matrix limited to 10 qubits, got 11"):
        hamiltonian_matrix(h)


def test_every_simulation_refuses_a_register_over_the_cap(monkeypatch):
    """The qubit cap is bound once, in ``pauli``, and checked where a
    register's first 2^N arrays are built: a circuit's gate table and H's
    flip patterns.  Every route is refused before either exists.  The cap is
    patched to 3, so no large register is allocated."""
    monkeypatch.setattr(pauli, "MAX_QUBITS", 3)
    circuit = build_hardware_efficient(4, 1)
    h = spin_ring_hamiltonian(4, 0.5)
    theta = np.zeros(circuit.num_parameters)
    state = StateVector(4, np.eye(16)[0])
    config = OptimizerConfig(step_size=0.01, max_outer=1)
    routes = {
        "prepare_state": lambda: prepare_state(circuit, theta),
        "expectation": lambda: expectation(state, h),
        "energy": lambda: energy(circuit, theta, h),
        "energy_gradient": lambda: energy_gradient(circuit, theta, h),
        "qfi_exact": lambda: qfi_exact(circuit, theta),
        "energy_gradient_metric": lambda: energy_gradient_metric(circuit, theta, h),
        "CircuitOracle": lambda: CircuitOracle(circuit, h),
        "_gate_table": lambda: circuit._gate_table,
        "flip_patterns": lambda: h.flip_patterns,
        "ground_energy": lambda: ground_energy(h),
        "run_analytic_descent": lambda: run_analytic_descent(circuit, h, config, NoiseSpec()),
        "run_natural_gradient": lambda: run_natural_gradient(circuit, h, config, NoiseSpec()),
    }
    for name, route in routes.items():
        with pytest.raises(ValueError, match="qubit count 4 exceeds cap 3"):
            route()
        assert "_gate_table" not in vars(circuit), name
        assert "flip_patterns" not in vars(h), name
    at_cap = build_hardware_efficient(3, 1)
    assert energy(at_cap, np.zeros(12), spin_ring_hamiltonian(3, 0.5)) == 1.5


# The compiled form against the Kronecker-product oracle: random sums on
# 1–4 qubits, including ones with no diagonal (Z-only) pattern, only a
# diagonal pattern, an identity term, and no terms at all.

_SUM_CASES = ("mixed", "no diagonal", "diagonal only", "identity", "empty")
_FLIP_BITS = str.maketrans("IZXY", "0011")


@st.composite
def _sums(draw):
    n = draw(st.integers(1, 4))
    case = draw(st.sampled_from(_SUM_CASES))
    strings = st.text("IZ" if case == "diagonal only" else "IXYZ", min_size=n, max_size=n)
    if case == "no diagonal":
        strings = strings.filter(lambda letters: set(letters) & set("XY"))
    coeff = st.floats(0.01, 1.0) | st.floats(-1.0, -0.01)
    count = 0 if case == "empty" else draw(st.integers(1, 6))
    terms = [(draw(coeff), PauliString(draw(strings))) for _ in range(count)]
    if case == "identity":
        terms.append((draw(coeff), PauliString("I" * n)))
    return PauliSum(n, tuple(terms))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(h=_sums(), seed=st.integers(0, 2**16))
def test_compiled_sum_applies_like_the_dense_matrix(h, seed):
    # one pattern per distinct set of flipped (X/Y) qubits; None marks flip 0
    flips = {string.letters.translate(_FLIP_BITS) for _, string in h.terms}
    diagonal = [src is None for src, _ in h.flip_patterns]
    assert len(diagonal) == len(flips)
    assert diagonal.count(True) == ("0" * h.num_qubits in flips)
    dense = dense_hamiltonian(h)
    rng = np.random.default_rng(seed)
    dim = 2**h.num_qubits
    batch = rng.standard_normal((3, dim)) + 1j * rng.standard_normal((3, dim))
    single = simulator._apply_hamiltonian(batch[0], h)
    assert np.allclose(single, dense @ batch[0], rtol=0.0, atol=1e-13)
    batched = simulator._apply_hamiltonian(batch, h)
    assert np.allclose(batched, batch @ dense.T, rtol=0.0, atol=1e-13)
    assert np.max(np.abs(hamiltonian_matrix(h) - dense), initial=0.0) < 1e-14


def test_a_sum_is_compiled_once(monkeypatch):
    kernel = pauli._pauli_kernel
    calls = []

    def counting(letters):
        calls.append(letters)
        return kernel(letters)

    monkeypatch.setattr(pauli, "_pauli_kernel", counting)
    h = spin_ring_hamiltonian(4, 0.3, [0.2, 0.0, -0.5, 0.1])
    psi = prepare_state(random_circuit(np.random.default_rng(5), 4, 6), np.zeros(6))
    first = simulator._apply_hamiltonian(psi.amplitudes, h)
    assert len(calls) == h.num_terms
    assert np.array_equal(simulator._apply_hamiltonian(psi.amplitudes, h), first)
    expectation(psi, h)
    hamiltonian_matrix(h)
    assert len(calls) == h.num_terms


def test_a_gate_table_builds_each_generator_once(monkeypatch):
    """Gates with the same generator share one kernel: the layered ansatz
    repeats its Y layer, and each Y word's gathers are one array."""
    kernel = simulator._pauli_kernel
    calls = []
    monkeypatch.setattr(
        simulator, "_pauli_kernel", lambda letters: calls.append(letters) or kernel(letters)
    )
    letters = tuple(g.letters for g in build_hardware_efficient(3, 2).generators)
    srcs, _ = simulator._gate_table(letters)
    assert sorted(calls) == sorted(set(letters))
    assert srcs[0] is srcs[9] is srcs[18]  # Y on qubit 0, three times


def test_one_energy_holds_one_table_array():
    """Memory guard: one energy at N = 10, B = 2 keeps its gate table, one
    ν×2^N phase array and the gathers, and peaks at that table plus the
    call's rotation rows."""
    h = spin_ring_hamiltonian(10, 0.05)
    h.flip_patterns  # H's arrays are the sum's, built before the trace
    circuit = build_hardware_efficient(10, 2)
    table_array = circuit.num_parameters * 2**10 * 16
    tracemalloc.start()
    try:
        energy(circuit, np.zeros(circuit.num_parameters), h)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held <= 1.25 * table_array
    assert peak <= 2.5 * table_array


def test_a_dropped_circuit_frees_its_gate_table():
    """The circuit is the table's only owner: once a simulated circuit and
    its rebase are dropped, nothing keeps the ν×2^N phase array alive."""
    h = spin_ring_hamiltonian(10, 0.05)
    h.flip_patterns  # H's arrays are the sum's, built before the trace
    circuit = build_hardware_efficient(10, 2)
    table_array = circuit.num_parameters * 2**10 * 16
    tracemalloc.start()
    try:
        energy(circuit, np.zeros(circuit.num_parameters), h)
        moved = circuit.rebased(np.full(circuit.num_parameters, 0.1))
        held = tracemalloc.get_traced_memory()[0]
        del circuit, moved
        gc.collect()
        freed = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held >= table_array
    assert freed <= 0.1 * table_array


def test_rebased_shares_a_built_table_and_never_builds_one():
    """A rebase of a simulated circuit reads its parent's table; a rebase of
    a never-simulated one holds none until its own first simulation."""
    h = spin_ring_hamiltonian(3, 0.5)
    fresh = build_hardware_efficient(3, 1)
    delta = np.full(fresh.num_parameters, 0.25)
    unbuilt = fresh.rebased(delta)
    assert "_gate_table" not in vars(fresh) and "_gate_table" not in vars(unbuilt)
    assert np.array_equal(unbuilt.theta_ref, delta) and not unbuilt.theta_ref.flags.writeable
    value = energy(unbuilt, np.zeros_like(delta), h)
    assert "_gate_table" not in vars(fresh)
    moved = unbuilt.rebased(-delta)
    assert "_gate_table" in vars(moved)  # handed on, not looked up again
    assert moved._gate_table is unbuilt._gate_table
    assert np.array_equal(moved.theta_ref, np.zeros_like(delta))
    assert energy(moved, delta, h) == value


def test_every_route_checks_h_against_the_state_before_compiling_h(monkeypatch):
    """A mismatched H is refused before any simulation: no gate table is
    built, H is not compiled, and neither optimizer solves its ground energy."""

    def no_ground_energy(h):
        raise AssertionError("the ground energy of a mismatched H was solved")

    monkeypatch.setattr(descent, "ground_energy", no_ground_energy)
    circuit = build_hardware_efficient(3, 1)
    theta = np.zeros(circuit.num_parameters)
    state = StateVector(3, np.eye(8)[5])
    config = OptimizerConfig(step_size=0.01, max_outer=1)
    for n in (2, 4):
        h = spin_ring_hamiltonian(n, 0.5)
        routes = (
            lambda: energy(circuit, theta, h),
            lambda: energy_gradient(circuit, theta, h),
            lambda: energy_gradient_metric(circuit, theta, h),
            lambda: CircuitOracle(circuit, h),
            lambda: expectation(state, h),
            lambda: run_analytic_descent(circuit, h, config, NoiseSpec()),
            lambda: run_natural_gradient(circuit, h, config, NoiseSpec()),
        )
        for route in routes:
            with pytest.raises(
                ValueError, match=f"operator on {n} qubits does not match 3-qubit state"
            ):
                route()
            assert "_gate_table" not in vars(circuit)
        assert "flip_patterns" not in vars(h)


def test_rotation_rows_are_minus_i_sin_times_the_kernel_phase():
    generators = tuple(PauliString(word) for word in ("ZI", "XY", "YY", "IX"))
    phases = np.stack([pauli._pauli_kernel(g.letters)[1] for g in generators])
    assert set(phases.ravel().tolist()) == {1, -1, 1j, -1j}
    circuit = AnsatzCircuit(2, generators, [0.4, -1.3, 2.9, 0.0])
    theta = np.array([0.8, 0.2, -2.2, 0.0])  # the last gate's sine is 0
    half = 0.5 * (circuit.theta_ref + theta)
    rows = simulator._rotations(circuit, theta)[3]
    assert np.array_equal(rows, (-1j * np.sin(half))[:, None] * phases)


def test_ground_energy_single_qubit():
    assert abs(ground_energy(parse_pauli_sum("1 Z")) + 1.0) < 1e-10
    assert abs(ground_energy(parse_pauli_sum("1 X")) + 1.0) < 1e-10


def test_ground_energy_heisenberg_triangle():
    # S=1/2 ground sector of the 3-site ring at J=0.05
    assert abs(ground_energy(spin_ring_hamiltonian(3, 0.05)) + 0.15) < 1e-8


def test_ground_energy_two_site_ring():
    # doubled bond at N=2: coefficients 2J, singlet at -6J
    assert abs(ground_energy(spin_ring_hamiltonian(2, 0.05)) + 0.3) < 1e-10


def test_ground_energy_matches_dense_diagonalization():
    """Both paths vs numpy.linalg.eigvalsh: dense for N up to 6, the
    iterative solver at N = 7 and 8."""
    rng = np.random.default_rng(61)
    for n in (2, 3, 4, 5, 6, 7, 8):
        h = random_hamiltonian(rng, n, 3 * n)
        want = float(np.linalg.eigvalsh(dense_hamiltonian(h)).min())
        assert abs(ground_energy(h) - want) < 1e-8


def test_ground_energy_is_dense_through_six_qubits(monkeypatch):
    """N = 6 (dimension 64) is the largest register diagonalized densely;
    N = 7 takes the iterative solver.  Both match eigvalsh to 1e-10."""
    import scipy.sparse.linalg

    calls = []
    eigsh = scipy.sparse.linalg.eigsh

    def counted(*args, **kwargs):
        calls.append(1)
        return eigsh(*args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", counted)
    rng = np.random.default_rng(67)
    for n, solves in ((6, 0), (7, 1)):
        h = spin_ring_hamiltonian(n, 0.05, rng.uniform(-1.0, 1.0, n))
        want = float(np.linalg.eigvalsh(hamiltonian_matrix(h))[0])
        assert abs(ground_energy(h) - want) < 1e-10
        assert len(calls) == solves


def test_ground_energy_of_a_sum_without_terms_is_zero():
    assert ground_energy(PauliSum(3, ())) == 0.0
    assert ground_energy(parse_pauli_sum("0.5 XZ\n-0.5 XZ")) == 0.0


def test_an_unconverged_eigensolve_reports_its_partial_residual(monkeypatch):
    """ARPACK's failure with a partial eigenpair (λ, v) is reported with the
    residual ‖Hv − λv‖ of that pair, a number."""
    import scipy.sparse.linalg

    h = spin_ring_hamiltonian(7, 0.05, np.linspace(-1.0, 1.0, 7))
    vec = np.random.default_rng(5).standard_normal((2**7, 1)).astype(complex)
    vec /= np.linalg.norm(vec)

    def partial(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.array([-1.0]), vec)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", partial)
    with pytest.raises(simulator.GroundEnergyError, match=r"residual: \d") as info:
        ground_energy(h)
    residual = float(str(info.value).rsplit("residual: ", 1)[1].rstrip(")"))
    want = np.linalg.norm(hamiltonian_matrix(h) @ vec[:, 0] + vec[:, 0])
    assert residual == pytest.approx(want, rel=1e-12)


def test_importing_the_package_leaves_scipy_sparse_unloaded():
    src = os.path.dirname(os.path.dirname(simulator.__file__))
    code = "import sys, analytic_descent; print('scipy.sparse' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "False"


def test_ground_energy_is_reproducible_on_the_field_free_ring():
    """The field-free ring's uniform state is an eigenvector far from the
    ground space, so the iterative solve must not start from it: repeated
    calls agree exactly and match dense diagonalization."""
    for n in (4, 6, 7):
        h = spin_ring_hamiltonian(n, 1.0)
        values = {ground_energy(h) for _ in range(3)}
        assert len(values) == 1
        want = float(np.linalg.eigvalsh(hamiltonian_matrix(h))[0])
        assert abs(values.pop() - want) < 1e-10


def test_tangent_single_rx_at_zero():
    circuit = AnsatzCircuit(1, (PauliString("X"),))
    _, (tangent,) = _state_and_tangents(circuit, np.zeros(1))
    assert np.allclose(tangent, [0.0, -0.5j], atol=1e-15)


def test_tangent_norm_bound():
    rng = np.random.default_rng(71)
    circuit = random_circuit(rng, 3, 8)
    for tangent in _state_and_tangents(circuit, rng.uniform(-1.0, 1.0, 8))[1]:
        assert np.linalg.norm(tangent) <= 0.5 + 1e-12


def test_tangent_matches_central_differences():
    """ || (psi(+eps) - psi(-eps)) / 2eps - tangent ||  =  O(eps^2) """
    rng = np.random.default_rng(83)
    circuit = random_circuit(rng, 3, 6)
    theta = rng.uniform(-0.5, 0.5, 6)
    _, tangents = _state_and_tangents(circuit, theta)
    eps = 1e-4
    for m in range(6):
        shift = np.zeros(6)
        shift[m] = eps
        diff = (
            prepare_state(circuit, theta + shift).amplitudes
            - prepare_state(circuit, theta - shift).amplitudes
        ) / (2.0 * eps)
        assert np.max(np.abs(diff - tangents[m])) < 1e-7


# The sweep and the adjoint Hessian pass against a gate-by-gate reference:
# random circuits on 1–4 qubits whose generators include Z-only (diagonal,
# no gather) and all-I strings.

@st.composite
def _circuits(draw):
    n = draw(st.integers(1, 4))
    alphabet = st.sampled_from(("IXYZ", "IZ", "I"))
    word = alphabet.flatmap(lambda letters: st.text(letters, min_size=n, max_size=n))
    generators = tuple(PauliString(w) for w in draw(st.lists(word, min_size=1, max_size=6)))
    angles = st.lists(st.floats(-4.0, 4.0), min_size=len(generators), max_size=len(generators))
    circuit = AnsatzCircuit(n, generators, draw(angles))
    return circuit, np.array(draw(angles)), draw(st.integers(0, 2**16))


def _run_gates(state, gates):
    """The gates one by one as cos(θ/2)·I − i·sin(θ/2)·P, P the dense matrix."""
    for generator, angle in gates:
        kicked = pauli_matrix(generator.letters) @ state
        state = np.cos(0.5 * angle) * state - 1j * np.sin(0.5 * angle) * kicked
    return state


def _kicked(state, generator, gates):
    """(-i/2)·V·P·|state⟩ for the gates V."""
    return -0.5j * _run_gates(pauli_matrix(generator.letters) @ state, gates)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(case=_circuits())
def test_sweep_equals_the_gate_by_gate_tangents(case):
    """tₘ = U_ν⋯U_{m+1}·(-i/2)Pₘ·Uₘ⋯U₁|0⟩ to 1e-14, and the pair block's
    Re⟨Hψ|t_kl⟩, with t_kl = U_ν⋯U_{l+1}·(-i/2)Pₗ·U_l⋯U_{k+1}·(-i/2)Pₖ·Uₖ⋯U₁|0⟩.
    ``prepare_state`` runs the same gate-table loop as the sweep, so its
    amplitudes equal the sweep's ψ value for value."""
    circuit, theta, seed = case
    n, nu = circuit.num_qubits, circuit.num_parameters
    gates = list(zip(circuit.generators, circuit.theta_ref + theta))
    h = random_hamiltonian(np.random.default_rng(seed), n, 4)
    psi, tangents = _state_and_tangents(circuit, theta)
    zero = np.zeros(2**n, dtype=complex)
    zero[0] = 1.0
    want_psi = _run_gates(zero, gates)
    assert np.max(np.abs(psi - want_psi)) <= 1e-14
    assert np.array_equal(prepare_state(circuit, theta).amplitudes, psi)
    for m, (generator, _) in enumerate(gates):
        head = _run_gates(zero, gates[: m + 1])
        want = _kicked(head, generator, gates[m + 1 :])
        assert np.max(np.abs(tangents[m] - want)) <= 1e-14
    got_psi, got_tangents, hessian, _ = _state_tangents_and_hessian(circuit, theta, h)
    assert np.array_equal(got_psi, psi) and np.array_equal(got_tangents, tangents)
    h_psi = dense_hamiltonian(h) @ want_psi
    for k, (first, _) in enumerate(gates):
        head = _run_gates(zero, gates[: k + 1])
        for l in range(k + 1, nu):
            inner = _kicked(head, first, gates[k + 1 : l + 1])
            pair = _kicked(inner, gates[l][0], gates[l + 1 :])
            assert abs(hessian[k, l] - np.vdot(h_psi, pair).real) <= 1e-13


def test_second_order_sweep_keeps_the_first_order_rows():
    """The adjoint Hessian sweep carries ψ and T bit for bit, fills only
    the strict upper triangle of the pair block, and its Hψ is H applied to
    that ψ, bit for bit."""
    rng = np.random.default_rng(89)
    circuit = random_circuit(rng, 3, 7)
    h = random_hamiltonian(rng, 3, 6)
    theta = rng.uniform(-1.0, 1.0, 7)
    psi, tangents = _state_and_tangents(circuit, theta)
    got_psi, got_tangents, hessian, h_psi = _state_tangents_and_hessian(circuit, theta, h)
    assert np.array_equal(got_psi, psi)
    assert np.array_equal(got_tangents, tangents)
    assert np.array_equal(h_psi, simulator._apply_hamiltonian(psi, h))
    assert hessian.shape == (7, 7)
    assert np.array_equal(hessian, np.triu(hessian, 1))


def test_pair_tangents_match_central_differences():
    """ h[k, l] = Re⟨Hψ₀|t_kl⟩: the pair tangents, contracted with Hψ₀, equal
    the central difference of Re⟨Hψ₀|t_k(θ)⟩ in θ_l to O(ε²). """
    rng = np.random.default_rng(97)
    circuit = random_circuit(rng, 3, 6)
    h = random_hamiltonian(rng, 3, 6)
    theta = rng.uniform(-0.5, 0.5, 6)
    psi, _ = _state_and_tangents(circuit, theta)
    _, _, hessian, _ = _state_tangents_and_hessian(circuit, theta, h)
    h_psi = dense_hamiltonian(h) @ psi
    eps = 1e-4
    for l in range(1, 6):
        shift = np.zeros(6)
        shift[l] = eps
        diff = (
            _state_and_tangents(circuit, theta + shift)[1]
            - _state_and_tangents(circuit, theta - shift)[1]
        ) / (2.0 * eps)
        want = (np.conj(h_psi) @ diff.T).real
        assert np.max(np.abs(hessian[:l, l] - want[:l])) < 1e-7
