"""Top-level acceptance gates, one test per criterion.

Each test pins one end-to-end guarantee of the library at its stated
tolerance; `pytest -v` on this file is the acceptance report.  Criterion 2
asserts exact reproduction of every schedule-point energy, which the
truncated model cannot deliver at the two-axis pair points (the dropped
cross words do not vanish there); it is expected to fail and is kept
as stated rather than weakened.  See the repository README for the
analysis of that truncation boundary.
"""

import time

import numpy as np
import pytest

from analytic_descent import (
    AnsatzCircuit,
    CircuitOracle,
    NoiseLevels,
    NoiseSpec,
    OptimizerConfig,
    PauliString,
    build_hardware_efficient,
    cost_to_reach,
    energy,
    estimate_coefficients,
    eval_energy,
    eval_gradient,
    extract_gradient_hessian,
    gradient_variance,
    gradient_variance_by_class,
    qfi_exact,
    qfi_surrogate_estimate,
    qfi_surrogate_eval,
    query_schedule,
    run_analytic_descent,
    run_natural_gradient,
    spin_ring_hamiltonian,
)
from analytic_descent.cli import _basis_state_reference, main, scaling_study
from conftest import FullTrigExpansion, fd_metric, random_circuit, random_hamiltonian


def _ring_instance():
    """N=6 Heisenberg ring with seeded random longitudinal fields; the
    42-parameter two-block ansatz used by the scaling and head-to-head gates."""
    omega = np.random.default_rng(7).uniform(-1.0, 1.0, 6)
    h = spin_ring_hamiltonian(6, 0.05, omega)
    circuit = build_hardware_efficient(6, 2)
    return h, circuit


def _seeded_start(h, circuit, seed):
    base = _basis_state_reference(h, circuit)
    rng = np.random.default_rng([0, int(seed), 0, 4])
    return base + rng.uniform(-0.5, 0.5, circuit.num_parameters)


@pytest.fixture(scope="module")
def ring_scaling_result():
    h, circuit = _ring_instance()
    anchored = circuit.rebased(_seeded_start(h, circuit, 1))
    started = time.monotonic()
    result = scaling_study(anchored, h, samples=12, rng_seed=3)
    elapsed = time.monotonic() - started
    return result, elapsed


def test_criterion_01_single_axis_slices_are_three_point_cosines():
    """100 random (circuit, Hamiltonian, axis) triples, N <= 6, nu <= 30:
    the three-point reconstruction matches the simulator at 20 random
    angles within 1e-9, in under a minute."""
    started = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(100):
        n = int(rng.integers(2, 7))
        nu = int(rng.integers(1, 31))
        circuit = random_circuit(rng, n, nu)
        h = random_hamiltonian(rng, n, int(rng.integers(2, 2 * n + 1)))
        axis = int(rng.integers(nu))
        vec = np.zeros(nu)

        def slice_energy(t):
            point = vec.copy()
            point[axis] = t
            return energy(circuit, point, h)

        e0 = slice_energy(0.0)
        plus = slice_energy(0.5 * np.pi)
        minus = slice_energy(-0.5 * np.pi)
        offset = 0.5 * (plus + minus)
        sine = 0.5 * (plus - minus)
        cosine = e0 - offset
        for t in rng.uniform(-np.pi, np.pi, 20):
            expected = offset + sine * np.sin(t) + cosine * np.cos(t)
            assert abs(slice_energy(t) - expected) < 1e-9
    assert time.monotonic() - started < 60.0


def test_criterion_02_model_reproduces_every_schedule_point():
    """eval_energy must reproduce all noiseless schedule-point energies
    within 1e-10 for random circuits with nu <= 20 (exact at the reference
    and single-axis points; the pair points probe the truncation)."""
    rng = np.random.default_rng(202)
    worst = 0.0
    worst_point = None
    for nu in (2, 7, 13, 20):
        circuit = random_circuit(rng, 3, nu)
        h = random_hamiltonian(rng, 3, 6)
        oracle = CircuitOracle(circuit, h)
        schedule = query_schedule(nu)
        raw = oracle.schedule_energies(schedule)
        model = estimate_coefficients(oracle, schedule)
        for point, value in zip(schedule, raw):
            defect = abs(eval_energy(model, point.shift(nu)) - value)
            if defect > worst:
                worst = defect
                worst_point = (nu, point.kind, point.axes)
    assert worst < 1e-10, (
        f"largest schedule-point defect {worst:.6g} at {worst_point}; the "
        f"truncated model drops two-axis cross words that are nonzero at "
        f"pair-shift points"
    )


def test_criterion_03_energy_error_scaling_slope(ring_scaling_result):
    """Spin-ring N=6, nu=42: log-log slope of the mean model energy error
    over radii 0.01..0.3 lies in [2.5, 3.6] with R^2 > 0.9, within 10 min."""
    result, elapsed = ring_scaling_result
    assert 2.5 <= result.energy_slope <= 3.6
    assert result.energy_r2 > 0.9
    assert elapsed < 600.0


def test_criterion_04_direction_error_scaling_slope(ring_scaling_result):
    """Same protocol: slope of mean 1-f in [3.3, 4.8] with R^2 > 0.9."""
    result, _ = ring_scaling_result
    assert 3.3 <= result.similarity_slope <= 4.8
    assert result.similarity_r2 > 0.9


def test_criterion_05_gradient_hessian_match_finite_differences():
    """extract_gradient_hessian vs central finite differences of the true
    energy (eps 1e-3) within 1e-5 on 20 random 4-qubit circuits."""
    rng = np.random.default_rng(500)
    eps = 1e-3
    for _ in range(20):
        circuit = random_circuit(rng, 4, 6)
        h = random_hamiltonian(rng, 4, 8)
        model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(6))
        g, hess = extract_gradient_hessian(model)
        e0 = energy(circuit, np.zeros(6), h)
        for k in range(6):
            vk = np.zeros(6)
            vk[k] = eps
            fd_g = (energy(circuit, vk, h) - energy(circuit, -vk, h)) / (2.0 * eps)
            assert abs(g[k] - fd_g) < 1e-5
            fd_kk = (energy(circuit, vk, h) - 2.0 * e0 + energy(circuit, -vk, h)) / eps**2
            assert abs(hess[k, k] - fd_kk) < 1e-5
            for l in range(k + 1, 6):
                vl = np.zeros(6)
                vl[l] = eps
                fd_kl = (
                    energy(circuit, vk + vl, h)
                    - energy(circuit, vk - vl, h)
                    - energy(circuit, -vk + vl, h)
                    + energy(circuit, -vk - vl, h)
                ) / (4.0 * eps**2)
                assert abs(hess[k, l] - fd_kl) < 1e-5


def test_criterion_06_untruncated_expansion_and_cubic_defect():
    """The full 3^nu expansion equals the simulator within 1e-8 at 10 random
    points per circuit (nu <= 6); the truncation defect of the quadratic
    model scales cubically on nu = 4."""
    rng = np.random.default_rng(127)
    for nu in (2, 4, 6):
        circuit = random_circuit(rng, 2, nu)
        h = random_hamiltonian(rng, 2, 5)
        full = FullTrigExpansion(circuit, h)
        for theta in rng.uniform(-np.pi, np.pi, (10, nu)):
            assert abs(full.energy(theta) - energy(circuit, theta, h)) < 1e-8

    rng = np.random.default_rng(9)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 5)
    full = FullTrigExpansion(circuit, h)
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(4))
    deltas = np.geomspace(0.02, 0.4, 6)
    means = []
    for delta in deltas:
        sampler = np.random.default_rng(5)
        means.append(np.mean([
            abs(full.energy(th) - eval_energy(model, th))
            for th in (sampler.uniform(-delta, delta, 4) for _ in range(60))
        ]))
    slope = np.polyfit(np.log10(deltas), np.log10(means), 1)[0]
    assert 2.5 < slope < 3.6


def test_criterion_07_gradient_variance_law_and_eB_dominance():
    """Monte-Carlo variance of the model gradient at the reference over 1000
    noise seeds matches gradient_variance within 15% per entry; with equal
    per-query noise the eB class carries >= 90% of the variance at 0.1."""
    rng = np.random.default_rng(700)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 5)
    schedule = query_schedule(4)
    clean = CircuitOracle(circuit, h).schedule_energies(schedule)
    table = {tuple(p.shift(4)): v for p, v in zip(schedule, clean)}

    class Cached:
        theta0 = circuit.theta_ref

        def __call__(self, shift):
            return table[tuple(shift)]

    levels = NoiseLevels(0.1, 0.1, 0.1, 0.1)
    draws = np.empty((1000, 4))
    model = None
    for seed in range(1000):
        model = estimate_coefficients(Cached(), schedule, levels, rng_seed=seed)
        draws[seed] = eval_gradient(model, np.zeros(4))
    monte_carlo = draws.var(axis=0, ddof=1)
    predicted = gradient_variance(model, np.zeros(4))
    assert np.all(np.abs(monte_carlo - predicted) / predicted <= 0.15)

    parts = gradient_variance_by_class(model, np.full(4, 0.1))
    share = np.sum(parts["B"]) / sum(np.sum(v) for v in parts.values())
    assert share >= 0.90


def test_criterion_08_query_accounting():
    """Schedule size is exactly 2 nu^2 + nu + 1 for nu in {1, 2, 10, 84};
    every natural-gradient step consumes exactly 2 nu raw queries."""
    for nu in (1, 2, 10, 84):
        assert len(query_schedule(nu)) == 2 * nu * nu + nu + 1
    rng = np.random.default_rng(800)
    circuit = random_circuit(rng, 2, 8, spread=1.0)
    h = random_hamiltonian(rng, 2, 4)
    config = OptimizerConfig(step_size=0.01, max_outer=3, convergence_threshold=1e-12)
    trace = run_natural_gradient(circuit, h, config, NoiseSpec())
    raw = [r.cumulative_raw_queries for r in trace.records]
    assert [b - a for a, b in zip(raw, raw[1:])] == [16, 16, 16]


def test_criterion_09_metric_correctness():
    """qfi_exact vs density-matrix finite differences within 1e-6 (N <= 4);
    the single-rotation metric is exactly 1.0 at the reference; the overlap
    surrogate equals the exact metric at the anchor within 1e-8."""
    rng = np.random.default_rng(900)
    for _ in range(6):
        n = int(rng.integers(2, 5))
        nu = int(rng.integers(1, 6))
        circuit = random_circuit(rng, n, nu)
        theta = rng.uniform(-1.0, 1.0, nu)
        assert np.max(np.abs(qfi_exact(circuit, theta).entries - fd_metric(circuit, theta))) < 1e-6

    single = AnsatzCircuit(1, (PauliString("X"),))
    assert qfi_exact(single, [0.0]).entries[0, 0] == 1.0

    for _ in range(5):
        circuit = random_circuit(rng, 2, int(rng.integers(2, 6)))
        nu = circuit.num_parameters
        surrogate = qfi_surrogate_estimate(circuit, np.zeros(nu))
        at_anchor = qfi_surrogate_eval(surrogate, np.zeros(nu)).entries
        assert np.max(np.abs(at_anchor - qfi_exact(circuit, np.zeros(nu)).entries)) < 1e-8


def test_criterion_10_noisy_head_to_head_cost():
    """Noisy spin-ring benchmark (N=6, nu=42, seeds 1..5): the surrogate
    optimizer reaches distance 1e-3 from the ground energy at a cumulative
    cost no larger than the natural-gradient baseline for >= 4 of 5 seeds,
    under the 2-units-per-estimation-phase accounting, within 30 min."""
    started = time.monotonic()
    h, circuit = _ring_instance()
    noise = NoiseSpec(enabled=True, relative_gradient_precision=0.1, rng_seed=0)
    ad_config = OptimizerConfig(
        step_size=0.01, max_outer=25, max_inner=10_000, trust_radius=0.2,
        convergence_threshold=1e-3, frozen_metric=True, record_inner_every=0,
    )
    ng_config = OptimizerConfig(
        step_size=0.01, max_outer=30_000, convergence_threshold=1e-3,
        record_inner_every=0,
    )
    wins = 0
    for seed in (1, 2, 3, 4, 5):
        start = circuit.rebased(_seeded_start(h, circuit, seed))
        ad_trace = run_analytic_descent(start, h, ad_config, noise, seed)
        ng_trace = run_natural_gradient(start, h, ng_config, noise, seed)
        ad_cost = cost_to_reach(ad_trace, 1e-3)
        ng_cost = cost_to_reach(ng_trace, 1e-3)
        assert ad_cost is not None and ng_cost is not None
        assert ad_trace.final.cumulative_cost == 2.0 * ad_trace.final.outer
        if ad_cost <= ng_cost:
            wins += 1
    assert wins >= 4
    assert time.monotonic() - started < 1800.0


def test_criterion_11_bit_identical_reruns(tmp_path):
    """Re-running a seeded noisy experiment reproduces the trace CSV byte
    for byte, with and without concurrent query dispatch."""
    config_path = tmp_path / "exp.ini"
    config_path.write_text(
        "[hamiltonian]\npreset = spin-ring\nN = 2\nomega_seed = 1\n\n"
        "[ansatz]\nblocks = 1\n\n"
        "[optimizer]\nmethod = analytic_descent\nstep_size = 0.01\nmax_outer = 40\n"
        "record_inner_every = 3\n\n"
        "[noise]\nenabled = true\nrelative_gradient_precision = 0.1\nrng_seed = 0\n\n"
        "[run]\nseeds = 1\ninit_perturbation = 0.3\n"
    )
    threaded_path = tmp_path / "threaded.ini"
    threaded_path.write_text(
        config_path.read_text().replace(
            "record_inner_every = 3\n", "record_inner_every = 3\nmax_workers = 4\n"
        )
    )
    outputs = {}
    for name, cfg in (
        ("serial_a", config_path), ("serial_b", config_path),
        ("threaded_a", threaded_path), ("threaded_b", threaded_path),
    ):
        out_dir = tmp_path / name
        assert main(["run", "--config", str(cfg), "--output-dir", str(out_dir)]) == 0
        outputs[name] = (out_dir / "analytic_descent_seed1.csv").read_bytes()
    assert outputs["serial_a"] == outputs["serial_b"]
    assert outputs["threaded_a"] == outputs["threaded_b"]
    # dispatch concurrency must not change the trace at all
    assert outputs["serial_a"] == outputs["threaded_a"]
