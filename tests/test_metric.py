"""Fisher-information metric: exact tangent-sweep evaluation, the
overlap-based surrogate, and the regularized direction solver."""

import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from numpy.linalg import LinAlgError
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import cho_factor, cho_solve

from analytic_descent import (
    AnsatzCircuit,
    CircuitOracle,
    PauliString,
    TrustRegionError,
    build_hardware_efficient,
    energy,
    energy_gradient,
    parse_pauli_sum,
    spin_ring_hamiltonian,
)
from analytic_descent import ansatz as ansatz_module
from analytic_descent import metric as metric_module
from analytic_descent.ansatz import prepare_state
from analytic_descent.metric import (
    MetricTensor,
    energy_gradient_metric,
    qfi_exact,
    qfi_from_tangents,
    qfi_surrogate_estimate,
    qfi_surrogate_eval,
    regularized_natural_direction,
)
from conftest import fd_metric, fourier_components, random_circuit


# ------------------------------------------------------------- qfi_exact


def test_single_rotation_metric_is_one():
    circuit = AnsatzCircuit(1, (PauliString("X"),))
    for t in (-2.1, -0.3, 0.0, 0.9, 3.0):
        assert abs(qfi_exact(circuit, [t]).entries[0, 0] - 1.0) < 1e-14


def test_matches_density_matrix_differences():
    rng = np.random.default_rng(11)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        nu = int(rng.integers(1, 6))
        circuit = random_circuit(rng, n, nu)
        theta = rng.uniform(-1.0, 1.0, nu)
        exact = qfi_exact(circuit, theta).entries
        oracle = fd_metric(circuit, theta)
        assert np.max(np.abs(exact - oracle)) < 1e-6


def test_repeated_generator_gives_rank_one_block():
    # consecutive rotations about the same axis share a tangent direction
    circuit = AnsatzCircuit(1, (PauliString("X"), PauliString("X")))
    F = qfi_exact(circuit, [0.4, -0.2]).entries
    assert np.max(np.abs(F - F[0, 0])) < 1e-12
    eigen = np.linalg.eigvalsh(F)
    assert abs(eigen[0]) < 1e-12
    assert abs(eigen[1] - 2.0 * F[0, 0]) < 1e-12


def test_metric_is_symmetric_psd_on_random_circuits():
    rng = np.random.default_rng(13)
    for _ in range(5):
        circuit = random_circuit(rng, 3, int(rng.integers(2, 8)))
        theta = rng.uniform(-2.0, 2.0, circuit.num_parameters)
        F = qfi_exact(circuit, theta)
        assert np.array_equal(F.entries, F.entries.T)
        assert np.linalg.eigvalsh(F.entries)[0] > -1e-8


def test_metric_tensor_validation():
    with pytest.raises(ValueError, match="expected 2x2"):
        MetricTensor(2, np.eye(3))
    with pytest.raises(ValueError, match="non-finite"):
        MetricTensor(1, [[np.nan]])
    with pytest.raises(ValueError, match="asymmetry"):
        MetricTensor(2, [[1.0, 0.5], [0.0, 1.0]])
    with pytest.raises(ValueError, match="not positive semidefinite"):
        MetricTensor(2, np.diag([-1.0, 1.0]))
    tensor = MetricTensor(2, np.eye(2))
    with pytest.raises(ValueError):
        tensor.entries[0, 0] = 5.0  # frozen storage


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_entries_are_named_on_and_off_the_diagonal(value):
    """Every non-finite entry, mirrored or not, is reported as such, not as
    an asymmetry or a failed Cholesky check ([[inf]] itself has a Cholesky
    factor), and is caught before any arithmetic can warn."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match="non-finite"):
            MetricTensor(1, [[value]])
        base = np.eye(5)
        for i, j, mirrored in ((2, 2, False), (1, 3, False), (3, 1, False), (0, 4, True)):
            entries = base.copy()
            entries[i, j] = value
            if mirrored:
                entries[j, i] = value
            with pytest.raises(ValueError, match="non-finite"):
                MetricTensor(5, entries)


def test_empty_metric_constructs_and_solves():
    F = MetricTensor(0, np.zeros((0, 0)))
    assert F.entries.shape == (0, 0)
    assert regularized_natural_direction(F, 0.01, []).shape == (0,)


def test_importing_the_package_and_cli_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(metric_module.__file__))
    code = (
        "import sys, analytic_descent, analytic_descent.cli\n"
        "print(sorted(k for k in sys.modules if k.startswith('scipy')))"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[]"


def test_importing_the_package_and_cli_builds_no_table():
    """Kernels, gate tables, canonical schedules and the ziggurat table are
    built on first use; a fresh interpreter pays none of them at import."""
    src = os.path.dirname(os.path.dirname(metric_module.__file__))
    code = (
        "import analytic_descent, analytic_descent.cli\n"
        "from analytic_descent import pauli, simulator, surrogate\n"
        "tables = (pauli._pauli_kernel, simulator._gate_table,\n"
        "          surrogate._canonical_schedule, surrogate._ziggurat_tables)\n"
        "print([table.cache_info().currsize for table in tables])"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert out.stdout.strip() == "[0, 0, 0, 0]"


def test_a_gram_metric_is_checked_by_its_factorization(monkeypatch):
    """qfi_exact's metric skips the PSD Cholesky: with its direction it
    makes one np.linalg.cholesky call, the factorization's.  A public
    MetricTensor of the same entries keeps its own check, and both solve
    bit for bit alike."""
    rng = np.random.default_rng(43)
    circuit = random_circuit(rng, 3, 6)
    cholesky = np.linalg.cholesky
    calls = []
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: calls.append(a) or cholesky(a))
    F = qfi_exact(circuit, rng.uniform(-1.0, 1.0, 6))
    assert calls == [] and not F.entries.flags.writeable
    g = rng.standard_normal(6)
    direction = regularized_natural_direction(F, 0.01, g)
    assert len(calls) == 1
    checked = MetricTensor(6, F.entries)
    assert len(calls) == 2
    assert np.array_equal(regularized_natural_direction(checked, 0.01, g), direction)
    assert len(calls) == 3


def test_a_rank_deficient_gram_metric_is_refused_at_zero_eta():
    """A repeated generator gives a singular Gram metric: it constructs,
    and the factorization of F + 0·I refuses it."""
    repeated = AnsatzCircuit(1, (PauliString("X"), PauliString("X")))
    F = qfi_exact(repeated, [0.4, -0.2])
    with pytest.raises(LinAlgError, match="regularized metric is not positive definite"):
        regularized_natural_direction(F, 0.0, [1.0, 0.0])
    assert np.all(np.isfinite(regularized_natural_direction(F, 1e-3, [1.0, 0.0])))


def test_cholesky_psd_check_at_its_edges(monkeypatch):
    """A rank-deficient metric, eigenvalues inside the -1e-8 tolerance and
    1x1 metrics pass the Cholesky check without a diagonalization; only a
    rejected metric is diagonalized, to word the error."""
    repeated = AnsatzCircuit(1, (PauliString("X"), PauliString("X")))
    F = qfi_exact(repeated, [0.4, -0.2]).entries
    eigvalsh = np.linalg.eigvalsh
    assert abs(eigvalsh(F)[0]) < 1e-12
    calls = []
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a) or eigvalsh(a))
    MetricTensor(2, F)
    MetricTensor(2, np.diag([-5e-9, 1.0]))
    for value in (-5e-9, 0.0, 2.0):
        MetricTensor(1, [[value]])
    assert calls == []
    for entries in (np.diag([-1e-6, 1.0]), [[-1e-6]]):
        with pytest.raises(ValueError) as info:
            MetricTensor(len(entries), entries)
        assert str(info.value) == (
            "metric is not positive semidefinite: smallest eigenvalue -1e-06"
        )
    assert len(calls) == 2


def test_one_sweep_gives_the_separate_routes_bit_for_bit():
    """energy_gradient_metric, and the schedule oracle's sweep at θ₀, equal
    energy, energy_gradient and qfi_exact exactly, not to rounding."""
    rng = np.random.default_rng(31)
    single = AnsatzCircuit(1, (PauliString("Y"),), [0.7])
    ring = build_hardware_efficient(3, 1)
    ring = ring.rebased(rng.uniform(-1.0, 1.0, ring.num_parameters))
    cases = [
        (single, parse_pauli_sum("0.5 Z\n-0.3 X")),
        (ring, spin_ring_hamiltonian(3, 0.05, rng.uniform(-1.0, 1.0, 3))),
    ]
    for circuit, h in cases:
        nu = circuit.num_parameters
        zeros = np.zeros(nu)
        for theta in [zeros] + [rng.uniform(-2.0, 2.0, nu) for _ in range(3)]:
            e, g, F = energy_gradient_metric(circuit, theta, h)
            assert e == energy(circuit, theta, h)
            assert np.array_equal(g, energy_gradient(circuit, theta, h))
            assert np.array_equal(F.entries, qfi_exact(circuit, theta).entries)
        psi, tangents, g0 = CircuitOracle(circuit, h).reference()
        assert np.array_equal(g0, energy_gradient(circuit, zeros, h))
        F0 = qfi_from_tangents(psi, tangents).entries
        assert np.array_equal(F0, qfi_exact(circuit, zeros).entries)
    with pytest.raises(ValueError, match="operator on 3 qubits does not match 1-qubit"):
        energy_gradient_metric(single, [0.0], cases[1][1])


# ------------------------------------------------------- metric surrogate


def test_surrogate_single_rotation_coefficients():
    circuit = AnsatzCircuit(1, (PauliString("X"),))
    s = qfi_surrogate_estimate(circuit, np.zeros(1))
    bb, column = _overlap_coefficients(circuit, np.zeros(1))
    assert abs(bb[0, 0] - 2.0) < 1e-12
    assert s.entries[0, 0] == 1.0
    assert abs(column[0]) < 1e-12


def test_surrogate_symmetry_and_shapes():
    rng = np.random.default_rng(17)
    circuit = random_circuit(rng, 2, 5)
    theta0 = rng.uniform(-1, 1, 5)
    s = qfi_surrogate_estimate(circuit, theta0)
    assert np.array_equal(s.entries, s.entries.T)
    assert s.entries.shape == (5, 5)
    at = qfi_surrogate_eval(s, rng.uniform(-1, 1, 5)).entries
    assert np.array_equal(at, at.T)
    # the a·b word's overlap column, which the surrogate leaves out, is zero
    _, column = _overlap_coefficients(circuit, theta0)
    assert np.max(np.abs(column)) < 1e-12


def test_surrogate_at_anchor_is_the_anchor_metric():
    rng = np.random.default_rng(19)
    circuit = random_circuit(rng, 2, 4)
    s = qfi_surrogate_estimate(circuit, np.zeros(4))
    exact = qfi_exact(circuit, np.zeros(4)).entries
    assert np.array_equal(s.entries, exact)
    assert np.array_equal(qfi_surrogate_eval(s, np.zeros(4)).entries, exact)


def test_surrogate_error_shrinks_linearly():
    # generic circuits show the leading linear error term; for special
    # parameter draws it can vanish and the decay steepens, so the seed
    # is pinned to a circuit with the generic behavior
    rng = np.random.default_rng(25)
    circuit = random_circuit(rng, 2, 4)
    s = qfi_surrogate_estimate(circuit, np.zeros(4))
    deltas = (0.4, 0.2, 0.1, 0.05, 0.025)
    means = []
    for delta in deltas:
        sampler = np.random.default_rng(3)
        errs = []
        for _ in range(20):
            theta = sampler.uniform(-delta, delta, 4)
            errs.append(np.max(np.abs(
                qfi_surrogate_eval(s, theta).entries
                - qfi_exact(circuit, theta).entries
            )))
        means.append(np.mean(errs))
    assert all(a > b for a, b in zip(means, means[1:]))
    slope = np.polyfit(np.log10(deltas), np.log10(means), 1)[0]
    assert 0.8 < slope < 1.2


def test_surrogate_eval_trust_region():
    circuit = AnsatzCircuit(1, (PauliString("X"),))
    s = qfi_surrogate_estimate(circuit, np.zeros(1))
    with pytest.raises(TrustRegionError):
        qfi_surrogate_eval(s, [0.5 * np.pi])


def test_surrogate_validation():
    circuit = AnsatzCircuit(1, (PauliString("X"),))
    with pytest.raises(ValueError, match="expected 1 parameters"):
        qfi_surrogate_estimate(circuit, np.zeros(2))
    with pytest.raises(ValueError, match="expected parameter vector of length 1"):
        qfi_surrogate_eval(qfi_surrogate_estimate(circuit, np.zeros(1)), np.zeros(2))


def _overlap_coefficients(circuit, theta0):
    """The paper's overlap combinations at ±π/2 single shifts, literally:
    the b·b coefficient [m,n] from the four (±m, ±n) pairs, and the a·b
    word's column [·,n] from ψ and the ±n states."""
    nu = circuit.num_parameters
    base = prepare_state(circuit, theta0).amplitudes
    shifted = {}
    for m in range(nu):
        for sign in (1.0, -1.0):
            shift = np.array(theta0, dtype=float)
            shift[m] += sign * 0.5 * np.pi
            shifted[m, sign] = prepare_state(circuit, shift).amplitudes

    def overlap(a, b):
        return abs(np.vdot(a, b)) ** 2

    bb = np.array([
        [
            overlap(shifted[m, 1.0], shifted[n, 1.0])
            + overlap(shifted[m, -1.0], shifted[n, -1.0])
            - overlap(shifted[m, -1.0], shifted[n, 1.0])
            - overlap(shifted[m, 1.0], shifted[n, -1.0])
            for n in range(nu)
        ]
        for m in range(nu)
    ])
    column = [overlap(base, shifted[n, 1.0]) - overlap(base, shifted[n, -1.0]) for n in range(nu)]
    return bb, np.array(column)


def _monomial_eval(bb, theta):
    """The paper's b·b word, bb[m,n]·2·B'ₘB'ₙ, from leave-one-out products of a."""
    a, _, _ = fourier_components(theta)
    dB = 0.5 * np.cos(theta) * [np.prod(np.delete(a, k)) for k in range(len(a))]
    return 2.0 * bb * np.outer(dB, dB)


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), qubits=st.integers(1, 4), nu=st.integers(1, 8))
def test_surrogate_from_the_sweep_is_the_overlap_surrogate(seed, qubits, nu):
    """The overlap combination is 2F(θ₀) and the a·b word's overlap column
    is zero, so the paper's b·b word is F(θ₀)∘wwᵀ, which the half-angle
    evaluation gives inside the trust region."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, qubits, nu)
    theta0 = rng.uniform(-np.pi, np.pi, nu)
    s = qfi_surrogate_estimate(circuit, theta0)
    bb, column = _overlap_coefficients(circuit, theta0)
    assert np.max(np.abs(2.0 * s.entries - bb)) < 1e-12
    assert np.max(np.abs(column)) < 1e-12
    exact = qfi_exact(circuit, theta0).entries
    assert np.array_equal(qfi_surrogate_eval(s, np.zeros(nu)).entries, exact)
    scale = np.max(np.abs(exact))
    for _ in range(5):
        theta = rng.uniform(-1.5, 1.5, nu)
        got = qfi_surrogate_eval(s, theta).entries
        assert np.max(np.abs(got - _monomial_eval(2.0 * exact, theta))) <= 1e-13 * scale


def test_surrogate_estimate_is_one_sweep(monkeypatch):
    calls = {"sweep": 0, "prepare": 0}
    sweep = metric_module._state_and_tangents

    def counting_sweep(*args):
        calls["sweep"] += 1
        return sweep(*args)

    def counting_prepare(*args):
        calls["prepare"] += 1
        return prepare_state(*args)

    monkeypatch.setattr(metric_module, "_state_and_tangents", counting_sweep)
    monkeypatch.setattr(metric_module, "prepare_state", counting_prepare)
    monkeypatch.setattr(ansatz_module, "prepare_state", counting_prepare)
    circuit = random_circuit(np.random.default_rng(31), 2, 5)
    qfi_surrogate_estimate(circuit, np.zeros(5))
    assert calls == {"sweep": 1, "prepare": 0}


# ------------------------------------------------------- direction solver


def test_direction_identity_metric():
    F = MetricTensor(2, np.eye(2))
    g = np.array([0.3, -1.2])
    assert np.array_equal(regularized_natural_direction(F, 0.0, g), g)
    damped = regularized_natural_direction(F, 0.01, g)
    assert np.max(np.abs(damped - g / 1.01)) < 1e-15


def test_direction_zero_metric_is_pure_regularization():
    F = MetricTensor(2, np.zeros((2, 2)))
    g = np.array([0.3, -1.2])
    assert np.max(np.abs(regularized_natural_direction(F, 0.01, g) - 100.0 * g)) < 1e-12


def test_direction_solves_the_shifted_system():
    rng = np.random.default_rng(23)
    a = rng.normal(size=(5, 5))
    F = MetricTensor(5, a @ a.T)
    g = rng.normal(size=5)
    eta = 0.05
    d = regularized_natural_direction(F, eta, g)
    residual = (F.entries + eta * np.eye(5)) @ d - g
    assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(g)


@pytest.mark.parametrize("nu", [1, 8, 42, 70])
def test_direction_solve_contract(nu):
    """On full-rank metrics the cached inverse solves to 1e-10·‖g‖ and
    agrees with LAPACK's Cholesky solve to 1e-12 relative."""
    rng = np.random.default_rng(100 + nu)
    a = rng.normal(size=(nu, nu))
    F = MetricTensor(nu, a @ a.T / nu)
    for eta in (1e-6, 0.01, 0.5):
        shifted = F.entries + eta * np.eye(nu)
        reference = cho_factor(shifted, lower=True)
        for g in rng.normal(size=(3, nu)):
            d = regularized_natural_direction(F, eta, g)
            assert np.linalg.norm(shifted @ d - g) <= 1e-10 * np.linalg.norm(g)
            want = cho_solve(reference, g)
            assert np.linalg.norm(d - want) <= 1e-12 * np.linalg.norm(want)


@pytest.mark.parametrize("qubits, blocks", [(2, 1), (6, 2), (10, 2)])
def test_direction_backward_error_on_ansatz_metrics(qubits, blocks):
    """Exact metrics of the hardware-efficient ansatz are rank-deficient, so
    at η = 1e-6 no solver reaches 1e-10·‖g‖.  The residual is bounded by
    16·ε·‖F + ηI‖·‖d‖ at every ν: the cached explicit inverse reached 1.8 ε
    on these draws and 12.8 ε over 8,000 wider ones at ν = 8, where a
    triangular Cholesky solve reached 1.1 ε; a bound that grew with ν would
    hide a loss of accuracy."""
    rng = np.random.default_rng(qubits)
    circuit = build_hardware_efficient(qubits, blocks)
    nu = circuit.num_parameters
    F = qfi_exact(circuit, rng.uniform(-1.0, 1.0, nu))
    for eta in (1e-6, 0.01, 0.5):
        shifted = F.entries + eta * np.eye(nu)
        scale = 16 * np.finfo(float).eps * np.linalg.norm(shifted, 2)
        for g in rng.normal(size=(20, nu)):
            d = regularized_natural_direction(F, eta, g)
            assert np.linalg.norm(shifted @ d - g) <= scale * np.linalg.norm(d)


def test_direction_factorizes_once_per_eta(monkeypatch):
    calls = []
    factor = metric_module.cho_factor

    def counted(*args, **kwargs):
        calls.append(args)
        return factor(*args, **kwargs)

    monkeypatch.setattr(metric_module, "cho_factor", counted)
    rng = np.random.default_rng(27)
    a = rng.normal(size=(5, 5))
    F = MetricTensor(5, a @ a.T)
    g = rng.normal(size=5)
    first = {}
    for eta in (0.01, 0.5, 0.01, 0.5):
        d = regularized_natural_direction(F, eta, g)
        residual = (F.entries + eta * np.eye(5)) @ d - g
        assert np.linalg.norm(residual) <= 1e-10 * np.linalg.norm(g)
        assert np.array_equal(d, first.setdefault(eta, d))
    assert len(calls) == 2
    assert np.max(np.abs(first[0.01] - first[0.5])) > 1e-3


def test_direction_rejects_indefinite_system():
    # an eigenvalue inside the PSD tolerance still breaks the factorization
    F = MetricTensor(2, np.diag([-5e-9, 1.0]))
    with pytest.raises(LinAlgError, match="smallest eigenvalue"):
        regularized_natural_direction(F, 0.0, np.ones(2))


def test_direction_input_validation():
    F = MetricTensor(2, np.eye(2))
    with pytest.raises(ValueError, match=">= 0"):
        regularized_natural_direction(F, -0.1, np.ones(2))
    with pytest.raises(ValueError, match="length 2"):
        regularized_natural_direction(F, 0.0, np.ones(3))
