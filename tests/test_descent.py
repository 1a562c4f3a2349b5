"""Two-loop surrogate descent, natural-gradient baseline, shot-noise
policy, feedback checks, traces, and CSV persistence."""

import ast

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analytic_descent import (
    AnsatzCircuit,
    CircuitOracle,
    DivergenceError,
    NoiseLevels,
    NoiseSpec,
    OptimizationTrace,
    OptimizerConfig,
    PauliString,
    TraceRecord,
    build_hardware_efficient,
    cost_to_reach,
    energy,
    estimate_coefficients,
    eval_energy,
    eval_gradient,
    one_minus_f,
    parse_pauli_sum,
    precision_policy,
    qfi_exact,
    query_schedule,
    read_trace_csv,
    regularized_natural_direction,
    run_analytic_descent,
    run_natural_gradient,
    spin_ring_hamiltonian,
    write_trace_csv,
)
from analytic_descent import ansatz as ansatz_module
from analytic_descent import descent, surrogate
from analytic_descent import metric as metric_module
from analytic_descent.descent import NOISE_FLOOR, TRACE_COLUMNS
from conftest import random_circuit, random_hamiltonian


def _rx(theta0):
    return AnsatzCircuit(1, (PauliString("X"),), [theta0])


Z_FIELD = parse_pauli_sum("1 Z")


# --------------------------------------------------------- noise policy


def test_precision_policy_worked_example():
    levels = precision_policy(1.0, 100, NoiseSpec(True, 0.1))
    assert levels.sigma_b == 0.01 / np.sqrt(2.0)
    assert levels.sigma_a == 0.1
    assert levels.sigma_c == 0.1
    assert levels.sigma_d == 0.05


def test_precision_policy_floors_at_zero_gradient():
    levels = precision_policy(0.0, 10, NoiseSpec(True, 0.1))
    for value in (levels.sigma_a, levels.sigma_b, levels.sigma_c, levels.sigma_d):
        assert value == NOISE_FLOOR


def test_precision_policy_rejects_negative_norm():
    # NaN passed the sign check and failed later, naming sigma_a
    for g_norm in (-1.0, np.nan, np.inf):
        with pytest.raises(ValueError, match="gradient norm must be finite and >= 0"):
            precision_policy(g_norm, 4, NoiseSpec(True, 0.1))


def test_noise_spec_validation():
    with pytest.raises(ValueError):
        NoiseSpec(True, 0.0)
    with pytest.raises(ValueError):
        NoiseSpec(True, 0.1, -1)
    for seed in (0.5, 2.0, np.float64(3.0)):
        with pytest.raises(ValueError, match=f"rng_seed must be an integer, got {seed}"):
            NoiseSpec(True, 0.1, seed)
    assert NoiseSpec(True, 0.1, np.int64(3)).rng_seed == 3
    for value in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="relative_gradient_precision must be finite"):
            NoiseSpec(True, value)


def test_optimizer_config_validation():
    with pytest.raises(ValueError, match="step_size"):
        OptimizerConfig(step_size=0.0)
    with pytest.raises(ValueError, match="eta"):
        OptimizerConfig(step_size=0.1, eta=-0.1)
    with pytest.raises(ValueError, match="trust_radius"):
        OptimizerConfig(step_size=0.1, trust_radius=2.0)
    with pytest.raises(ValueError, match="max_outer"):
        OptimizerConfig(step_size=0.1, max_outer=0)
    with pytest.raises(ValueError, match="feedback_period"):
        OptimizerConfig(step_size=0.1, feedback_period=-1)
    with pytest.raises(ValueError, match="convergence_threshold"):
        OptimizerConfig(step_size=0.1, convergence_threshold=0.0)
    for name in ("step_size", "eta", "trust_radius", "feedback_tolerance",
                 "convergence_threshold", "similarity_abort"):
        for value in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                OptimizerConfig(**{"step_size": 0.1, name: value})


def test_one_minus_f_geometry():
    assert one_minus_f([1.0, 0.0], [2.0, 0.0]) == 0.0
    assert abs(one_minus_f([1.0, 0.0], [0.0, 3.0]) - 1.0) < 1e-15
    assert abs(one_minus_f([1.0, 0.0], [-1.0, 0.0]) - 2.0) < 1e-15
    assert one_minus_f([0.0, 0.0], [1.0, 0.0]) == 0.0


# ------------------------------------------------------- feedback check


def _deviation(model, circuit, h, theta):
    # |device energy − surrogate energy| at θ, the noiseless feedback deviation
    return abs(energy(circuit, theta, h) - eval_energy(model, theta))


def test_feedback_zero_for_single_parameter_model():
    circuit = _rx(0.3)
    model = estimate_coefficients(CircuitOracle(circuit, Z_FIELD), query_schedule(1))
    for t in (-1.2, -0.3, 0.0, 0.8):
        assert _deviation(model, circuit, Z_FIELD, [t]) < 1e-12


def test_feedback_deviation_grows_cubically():
    rng = np.random.default_rng(9)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 5)
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(4))
    radii = (0.05, 0.1, 0.2, 0.4)
    worst = []
    for radius in radii:
        sampler = np.random.default_rng(13)
        worst.append(max(
            _deviation(model, circuit, h, sampler.uniform(-radius, radius, 4))
            for _ in range(30)
        ))
    slope = np.polyfit(np.log10(radii), np.log10(worst), 1)[0]
    assert 2.5 < slope < 3.5


def test_feedback_noise_injection_is_seeded():
    """The ledger's feedback adds σ_a times the first draw of stream
    (noise seed, run seed, outer, 2) at the check's index to the device
    energy, and charges one raw query."""
    circuit = _rx(0.3)
    model = estimate_coefficients(CircuitOracle(circuit, Z_FIELD), query_schedule(1))
    e_true, e_model = energy(circuit, [0.1], Z_FIELD), eval_energy(model, [0.1])

    def feedback(levels):
        run = descent._Recorder("analytic_descent", Z_FIELD, 1e-3, NoiseSpec(True), 7)
        run.levels = levels
        return run.feedback(e_true, e_model, 3, 2), run.raw

    levels = NoiseLevels(0.5, 0.5, 0.5, 0.5)
    a, b, clean = feedback(levels), feedback(levels), feedback(None)
    assert a == b
    assert clean == (abs(e_true - e_model), 1)
    draw = np.random.default_rng([0, 7, 3, 2, 2]).standard_normal()
    assert a == (abs(e_true + 0.5 * draw - e_model), 1)
    assert abs(a[0] - clean[0]) > 1e-4


# ------------------------------------------------ surrogate descent runs


def test_single_qubit_descent_converges_fast():
    config = OptimizerConfig(
        step_size=0.01, max_outer=20, trust_radius=0.2, convergence_threshold=1e-6,
        record_inner_every=0,
    )
    trace = run_analytic_descent(_rx(0.3), Z_FIELD, config, NoiseSpec())
    assert trace.metadata["exit"] == "converged"
    assert trace.final.outer <= 15
    assert trace.final.distance_to_ground < 1e-6


def test_cost_accounting_per_outer():
    config = OptimizerConfig(step_size=0.01, max_outer=3, record_inner_every=0)
    trace = run_analytic_descent(_rx(2.0), Z_FIELD, config, NoiseSpec())
    outers = [r for r in trace.records if r.phase == "outer"]
    for count, record in enumerate(outers):
        assert record.cumulative_cost == 2.0 * count
        assert record.cumulative_raw_queries == 4 * count  # 2*1+1+1 per build
    assert trace.final.energy_model is not None


def test_zero_gradient_start_stays_stationary():
    config = OptimizerConfig(step_size=0.01, max_outer=3, record_inner_every=0)
    trace = run_analytic_descent(_rx(0.0), Z_FIELD, config, NoiseSpec())
    assert trace.metadata["exit"] == "budget"
    assert all(r.energy_true == 1.0 for r in trace.records)
    assert all(e["reason"] == "stationary" for e in trace.metadata["inner_exits"])


def test_noise_floor_lifts_both_optimizers_off_a_stationary_maximum(monkeypatch, tmp_path):
    """At an exact stationary point that is not the ground state (E = +1,
    g = 0) every noise level is the floor; its draws alone move both runs
    off the maximum, reproducibly, and both converge."""
    circuit = AnsatzCircuit(1, (PauliString("Y"),))
    noise = NoiseSpec(enabled=True, relative_gradient_precision=0.1, rng_seed=0)
    levels, gradients = [], []

    def spy(record, function):
        def wrapped(*args):
            record.append(function(*args))
            return record[-1]
        return wrapped

    monkeypatch.setattr(descent, "precision_policy", spy(levels, descent.precision_policy))
    device_gradient = descent._Recorder.device_gradient

    def spy_gradient(run, g, *args):
        gradients.append((g, device_gradient(run, g, *args)))
        return gradients[-1][1]

    monkeypatch.setattr(descent._Recorder, "device_gradient", spy_gradient)
    runs = {
        "ad": (run_analytic_descent, OptimizerConfig(step_size=0.01, max_outer=100)),
        "ng": (run_natural_gradient, OptimizerConfig(step_size=0.01, max_outer=30_000)),
    }
    for name, (run, config) in runs.items():
        texts = []
        for attempt in range(2):
            trace = run(circuit, Z_FIELD, config, noise, 1)
            assert trace.metadata["exit"] == "converged"
            assert trace.records[0].energy_true == 1.0
            assert trace.final.energy_true < -0.99
            for r in trace.records:
                assert np.isfinite(r.energy_true)
                assert r.energy_model is None or np.isfinite(r.energy_model)
            path = tmp_path / f"{name}{attempt}.csv"
            write_trace_csv(trace, path)
            texts.append(path.read_bytes())
        assert texts[0] == texts[1]
    first = levels[0]
    assert (first.sigma_a, first.sigma_b, first.sigma_c, first.sigma_d) == (NOISE_FLOOR,) * 4
    # The first noisy device gradient is NG step 1's: its exact g plus the
    # floor σ times the draw of stream (noise seed, run seed, step 1), index 1.
    exact, noisy = gradients[0]
    draws = surrogate._query_rng((0, 1, 1), 1).standard_normal(1)
    assert np.array_equal(noisy, exact + NOISE_FLOOR * draws)


# ---------------------------------------------------------- device ledger

# A noisy analytic-descent run on the 3-qubit ring (ν = 12) whose device
# checks pass, fail on feedback and fail on similarity, and the noisy
# natural-gradient baseline on the same start.
LEDGER_NOISE = NoiseSpec(enabled=True, relative_gradient_precision=0.1, rng_seed=5)
LEDGER_RUN_SEED = 4
CHECKED = OptimizerConfig(
    step_size=0.01, max_outer=8, max_inner=300, trust_radius=0.3, feedback_period=3,
    feedback_tolerance=0.1, similarity_feedback=True, similarity_abort=0.01,
    record_inner_every=2,
)
BASELINE = OptimizerConfig(step_size=0.01, max_outer=50)


def _ledger_start():
    h = spin_ring_hamiltonian(3, 0.05, np.random.default_rng(7).uniform(-1.0, 1.0, 3))
    circuit = build_hardware_efficient(3, 1)
    shift = np.random.default_rng(3).uniform(-0.5, 0.5, circuit.num_parameters)
    return circuit.rebased(shift), h


def _checks(trace, outer):
    return sum(r.phase == "feedback" and r.outer == outer for r in trace.records)


def test_every_device_request_draws_from_its_documented_stream(monkeypatch):
    """Estimation draws from (noise seed, run seed, outer, 0); a feedback and
    a similarity check from (…, outer, 2) and (…, outer, 3) at the check's
    index; natural-gradient step s from (…, s) at index 1."""
    circuit, h = _ledger_start()
    requests = []
    query_rng, estimate = descent._query_rng, descent.estimate_coefficients

    def spy_rng(key, index, *rest):
        requests.append((tuple(key), index))
        return query_rng(key, index, *rest)

    def spy_estimate(*args, rng_seed, **kwargs):
        requests.append((tuple(rng_seed), "schedule"))
        return estimate(*args, rng_seed=rng_seed, **kwargs)

    monkeypatch.setattr(descent, "_query_rng", spy_rng)
    monkeypatch.setattr(descent, "estimate_coefficients", spy_estimate)
    trace = run_analytic_descent(circuit, h, CHECKED, LEDGER_NOISE, LEDGER_RUN_SEED)
    exits = trace.metadata["inner_exits"]
    assert {e["reason"] for e in exits} >= {"feedback", "similarity"}
    assert any(_checks(trace, e["outer"]) > 1 for e in exits)  # a check that passed
    key = (LEDGER_NOISE.rng_seed, LEDGER_RUN_SEED)
    expected = []
    for e in exits:
        outer, checks = e["outer"], _checks(trace, e["outer"])
        expected.append((key + (outer, 0), "schedule"))
        for check in range(1, checks + 1):
            expected.append((key + (outer, 2), check))
            if check < checks or e["reason"] != "feedback":
                expected.append((key + (outer, 3), check))
    assert requests == expected

    requests.clear()
    trace = run_natural_gradient(circuit, h, BASELINE, LEDGER_NOISE, LEDGER_RUN_SEED)
    assert requests == [(key + (step,), 1) for step in range(1, trace.final.outer + 1)]


def test_trace_charges_each_request_its_units_and_queries():
    """Per outer step 2 units and 2ν²+ν+1 + f + 2ν·s raw queries, f the
    step's feedback records and s its similarity checks (every check but one
    that ended the walk on feedback); per baseline step 1 unit and 2ν."""
    circuit, h = _ledger_start()
    nu = circuit.num_parameters
    trace = run_analytic_descent(circuit, h, CHECKED, LEDGER_NOISE, LEDGER_RUN_SEED)
    outers = [r for r in trace.records if r.phase == "outer"]
    exits = trace.metadata["inner_exits"]
    assert len(exits) == len(outers) - 1
    for e, before, after in zip(exits, outers, outers[1:]):
        f = _checks(trace, e["outer"])
        s = f - (e["reason"] == "feedback")
        assert after.cumulative_cost - before.cumulative_cost == 2.0
        raw = after.cumulative_raw_queries - before.cumulative_raw_queries
        assert raw == 2 * nu * nu + nu + 1 + f + 2 * nu * s
    trace = run_natural_gradient(circuit, h, BASELINE, LEDGER_NOISE, LEDGER_RUN_SEED)
    assert len(trace.records) == BASELINE.max_outer + 1
    for before, after in zip(trace.records, trace.records[1:]):
        assert after.cumulative_cost - before.cumulative_cost == 1.0
        assert after.cumulative_raw_queries - before.cumulative_raw_queries == 2 * nu


# Every device request goes through these calls: the noise streams, the
# estimation, its noise levels, and a generator's draw methods.
_LEDGER_CALLS = (
    "_query_rng", "estimate_coefficients", "precision_policy",
    "standard_normal", "normal", "uniform", "integers", "random",
)


def _ledger_work(node):
    """(line, name) of each cost/raw assignment and each guarded call in ``node``."""
    found = []
    for sub in ast.walk(node):
        if isinstance(sub, ast.Call):
            name = getattr(sub.func, "id", getattr(sub.func, "attr", None))
            if name in _LEDGER_CALLS:
                found.append((sub.lineno, name))
        if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = getattr(sub, "targets", [getattr(sub, "target", None)])
            for target in targets:
                for part in ast.walk(target):
                    if isinstance(part, ast.Attribute) and part.attr in ("cost", "raw"):
                        found.append((sub.lineno, part.attr))
    return found


def test_only_the_ledger_charges_queries_or_draws_noise():
    """In descent.py only ``_Recorder``'s methods assign ``cost`` or ``raw``,
    call ``_query_rng``, ``estimate_coefficients`` or ``precision_policy``,
    or draw from a generator; a new device request is a ledger method, not a
    hand-bumped counter or a draw made elsewhere."""
    with open(descent.__file__) as handle:
        tree = ast.parse(handle.read())
    ledger = next(
        node for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name == "_Recorder"
    )
    outside = sum((_ledger_work(node) for node in tree.body if node is not ledger), [])
    assert outside == []
    inside = {name for _, name in _ledger_work(ledger)}
    assert inside == {
        "cost", "raw", "_query_rng", "estimate_coefficients", "precision_policy",
        "standard_normal",
    }


def test_trust_region_exit_bounds_the_displacement():
    config = OptimizerConfig(
        step_size=0.01, max_outer=1, trust_radius=0.05, record_inner_every=0,
    )
    trace = run_analytic_descent(_rx(2.0), Z_FIELD, config, NoiseSpec())
    assert trace.metadata["inner_exits"][0]["reason"] == "trust_radius"
    moved = abs(trace.theta[0] - 2.0)
    # the loop records the step that crossed the radius, then stops; one
    # extra step of at most step_size * max |direction| can overshoot
    assert 0.05 <= moved < 0.05 + 0.02


def test_noiseless_inner_loop_is_monotone_on_the_surrogate():
    rng = np.random.default_rng(33)
    circuit = random_circuit(rng, 3, 6, spread=1.0)
    h = random_hamiltonian(rng, 3, 6)
    config = OptimizerConfig(step_size=0.01, max_outer=2, record_inner_every=1)
    trace = run_analytic_descent(circuit, h, config, NoiseSpec())
    by_outer = {}
    for record in trace.records:
        if record.phase == "inner":
            by_outer.setdefault(record.outer, []).append(record.energy_model)
    assert by_outer
    for values in by_outer.values():
        for previous, current in zip(values, values[1:]):
            assert current <= previous + 1e-12


def test_first_inner_step_is_a_natural_gradient_step_on_eB():
    """The first inner update must coincide bit-for-bit with a conventional
    natural-gradient step whose gradient is half the (noisy) eB vector."""
    rng = np.random.default_rng(35)
    circuit = random_circuit(rng, 2, 5, spread=1.0)
    h = random_hamiltonian(rng, 2, 5)
    noise = NoiseSpec(enabled=True, relative_gradient_precision=0.1, rng_seed=4)
    config = OptimizerConfig(
        step_size=0.02, max_outer=1, max_inner=1, record_inner_every=0,
    )
    trace = run_analytic_descent(circuit, h, config, noise, rng_seed=9)
    stepped = np.array(trace.theta)

    from analytic_descent import energy_gradient

    g_ref = energy_gradient(circuit, np.zeros(5), h)
    levels = precision_policy(float(np.linalg.norm(g_ref)), 5, noise)
    model = estimate_coefficients(
        CircuitOracle(circuit, h), query_schedule(5), levels,
        rng_seed=(noise.rng_seed, 9, 1, 0),
    )
    direction = regularized_natural_direction(
        qfi_exact(circuit, np.zeros(5)), config.eta, 0.5 * model.eB
    )
    assert np.array_equal(stepped, circuit.theta_ref - config.step_size * direction)


def test_noisy_descent_is_deterministic_and_thread_invariant():
    rng = np.random.default_rng(39)
    circuit = random_circuit(rng, 2, 4, spread=1.0)
    h = random_hamiltonian(rng, 2, 4)
    noise = NoiseSpec(enabled=True, relative_gradient_precision=0.1, rng_seed=2)

    def run():
        config = OptimizerConfig(step_size=0.01, max_outer=4, record_inner_every=2)
        return run_analytic_descent(circuit, h, config, noise, rng_seed=11)

    first, second = run(), run()
    assert first.records == second.records
    different = run_analytic_descent(
        circuit, h,
        OptimizerConfig(step_size=0.01, max_outer=4, record_inner_every=2),
        NoiseSpec(enabled=True, relative_gradient_precision=0.1, rng_seed=3),
        rng_seed=11,
    )
    assert different.records != first.records


def test_feedback_exit_on_truncation_deviation():
    rng = np.random.default_rng(9)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 5)
    config = OptimizerConfig(
        step_size=0.01, max_outer=1, trust_radius=0.4, feedback_period=3,
        feedback_tolerance=1e-15, record_inner_every=0,
    )
    trace = run_analytic_descent(circuit, h, config, NoiseSpec())
    assert trace.metadata["inner_exits"] == [
        {"outer": 1, "reason": "feedback", "steps": 3}
    ]
    phases = [r.phase for r in trace.records]
    assert "feedback" in phases
    # one extra raw query for the device check on top of the 37-point build
    assert trace.final.cumulative_raw_queries == 38


def test_similarity_exit_under_overwhelming_gradient_noise():
    rng = np.random.default_rng(9)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 5)
    config = OptimizerConfig(
        step_size=0.01, max_outer=1, trust_radius=0.4, feedback_period=1,
        feedback_tolerance=1e6, similarity_feedback=True, similarity_abort=0.05,
        record_inner_every=0,
    )
    noise = NoiseSpec(enabled=True, relative_gradient_precision=10.0, rng_seed=5)
    trace = run_analytic_descent(circuit, h, config, noise, rng_seed=1)
    assert trace.metadata["inner_exits"][0]["reason"] == "similarity"


def test_similarity_feedback_compares_gradients_at_the_same_point(monkeypatch):
    """The surrogate gradient handed to 1−f is the model's gradient at the
    device's θ, the point the device gradient was measured at."""
    rng = np.random.default_rng(9)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 5)
    events = []

    def recording(name, fn):
        def wrapped(*args, **kwargs):
            out = fn(*args, **kwargs)
            events.append((name, args, out))
            return out
        return wrapped

    swept = ("energy_gradient", "energy_gradient_metric")
    for name in ("estimate_coefficients", *swept, "one_minus_f"):
        monkeypatch.setattr(descent, name, recording(name, getattr(descent, name)))
    config = OptimizerConfig(
        step_size=0.01, max_outer=2, max_inner=8, trust_radius=0.4,
        feedback_period=2, feedback_tolerance=1e6, similarity_feedback=True,
        similarity_abort=2.5, record_inner_every=0,
    )
    run_analytic_descent(circuit, h, config, NoiseSpec())
    compared = 0
    routes = set()
    for position, (name, args, _) in enumerate(events):
        if name != "one_minus_f":
            continue
        model = [out for n, _, out in events[:position] if n == "estimate_coefficients"][-1]
        route, (_, theta, _), device = events[position - 1]
        assert route in swept
        if route == "energy_gradient_metric":  # the step's record sweep: (E, g, F)
            device = device[1]
        routes.add(route)
        assert np.any(theta != 0.0)
        assert np.array_equal(args[1], device)
        assert np.array_equal(args[0], eval_gradient(model, theta))
        compared += 1
    assert compared == 8
    # steps 2, 4 and 6 reuse the sweep whose metric serves the next step;
    # step 8 ends the inner loop, so no metric is taken there
    assert routes == set(swept)


@pytest.mark.parametrize("max_inner", [8, 1000], ids=["max_inner", "trust_radius"])
def test_records_and_feedback_simulate_each_point_once(monkeypatch, max_inner):
    """Feedback takes its energies, and similarity its device gradient, from
    the sweep that the record at that θ already ran; a sweep's metric always
    serves a later step; no point is simulated or modelled twice."""
    calls = {}

    def recording(name, fn):
        def wrapped(first, theta, *rest):
            # holding ``first`` keeps its id unique for the whole run
            calls.setdefault(name, []).append((first, tuple(np.asarray(theta))))
            return fn(first, theta, *rest)
        return wrapped

    simulated = ("energy", "energy_gradient", "energy_gradient_metric", "qfi_exact")
    for name in (*simulated, "eval_energy"):
        monkeypatch.setattr(descent, name, recording(name, getattr(descent, name)))
    ring = spin_ring_hamiltonian(3, 0.05, np.random.default_rng(7).uniform(-1, 1, 3))
    ansatz = build_hardware_efficient(3, 1)
    start = ansatz.rebased(
        np.random.default_rng(1).uniform(-0.3, 0.3, ansatz.num_parameters)
    )
    config = OptimizerConfig(
        step_size=0.05, max_outer=4, max_inner=max_inner, feedback_period=4,
        record_inner_every=4, similarity_feedback=True, convergence_threshold=1e-9,
    )
    trace = run_analytic_descent(start, ring, config, NoiseSpec(), rng_seed=2)
    feedback = [r for r in trace.records if r.phase == "feedback"]
    exits = trace.metadata["inner_exits"]
    assert len(feedback) >= 8
    assert {e["reason"] for e in exits} == {"max_inner" if max_inner == 8 else "trust_radius"}

    def keys(*names):
        return [(id(first), theta) for name in names for first, theta in calls.get(name, [])]

    states = keys("energy", "energy_gradient_metric")
    assert len(states) == len(set(states))
    assert not set(keys("energy_gradient")) & set(keys("energy_gradient_metric"))
    assert len(keys("eval_energy")) == len(set(keys("eval_energy")))
    # the first step of each outer step uses the oracle's metric at θ₀
    metrics = len(keys("energy_gradient_metric", "qfi_exact"))
    assert metrics == sum(max(e["steps"] - 1, 0) for e in exits)


def test_descent_divergence_carries_partial_trace():
    huge = parse_pauli_sum("1e200 Z")
    config = OptimizerConfig(step_size=1e200, record_inner_every=0)
    with np.errstate(over="ignore"), pytest.raises(DivergenceError) as info:
        run_analytic_descent(_rx(2.0), huge, config, NoiseSpec())
    assert "diverged" in str(info.value)
    assert len(info.value.trace.records) == 1


def test_a_converged_start_reports_no_inner_exits():
    config = OptimizerConfig(step_size=0.01, record_inner_every=0)
    trace = run_analytic_descent(_rx(np.pi), Z_FIELD, config, NoiseSpec())
    assert trace.metadata["exit"] == "converged"
    assert len(trace.records) == 1
    assert trace.metadata["inner_exits"] == []


def test_a_divergence_keeps_the_inner_exits_of_finished_outer_steps(monkeypatch):
    """Outer step 2's walk diverges on its first step; the partial trace
    carries the exit of outer step 1, whose walk and record finished."""
    ring, start = _ring3_start()
    counts = _counting(monkeypatch, descent, ("estimate_coefficients",))
    gradient = descent.eval_gradient

    def diverging(model, theta):
        g = gradient(model, theta)
        return np.full_like(g, np.inf) if counts["estimate_coefficients"] == 2 else g

    monkeypatch.setattr(descent, "eval_gradient", diverging)
    config = OptimizerConfig(
        step_size=0.01, max_outer=3, max_inner=40, record_inner_every=0,
    )
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as info:
        run_analytic_descent(start, ring, config, NoiseSpec())
    assert "non-finite parameters at outer 2 inner 1" in str(info.value)
    trace = info.value.trace
    assert [r.outer for r in trace.records] == [0, 1]
    (exit_,) = trace.metadata["inner_exits"]
    assert exit_ == {"outer": 1, "reason": "max_inner", "steps": 40}
    assert trace.final.inner == 40


def _nan_from_call(monkeypatch, name, first):
    """``descent.<name>`` with its results turned to NaN from call ``first`` on."""
    fn = getattr(descent, name)
    calls = [0]

    def patched(*args):
        calls[0] += 1
        value = fn(*args)
        return value * np.nan if calls[0] >= first else value

    monkeypatch.setattr(descent, name, patched)


def _assert_finite_records(trace):
    assert trace.records
    for r in trace.records:
        model = [] if r.energy_model is None else [r.energy_model]
        assert np.all(np.isfinite([r.energy_true, r.distance_to_ground, *model])), r


# (patched name, first NaN call, settings, the record refused); with a frozen
# metric the walk's records take the true energy from ``energy``.
FROZEN = dict(frozen_metric=True)
NAN_ENERGIES = [
    ("eval_energy", 3, dict(record_inner_every=1), "inner record at outer 1 inner 3"),
    ("energy", 2, dict(record_inner_every=1, **FROZEN), "inner record at outer 1 inner 1"),
    ("eval_energy", 2, dict(feedback_period=2), "feedback record at outer 1 inner 4"),
    ("energy", 3, dict(feedback_period=2, **FROZEN), "feedback record at outer 1 inner 4"),
    ("energy", 2, {}, "outer record at outer 1 inner 40"),
]


@pytest.mark.parametrize(
    "name, first, settings, where", NAN_ENERGIES,
    ids=["inner-model", "inner-true", "feedback-model", "feedback-true", "outer-true"],
)
def test_a_non_finite_energy_is_refused_in_every_record_phase(
    monkeypatch, name, first, settings, where
):
    ring, start = _ring3_start()
    _nan_from_call(monkeypatch, name, first)
    settings = {"record_inner_every": 0, **settings}
    config = OptimizerConfig(step_size=0.01, max_outer=3, max_inner=40, **settings)
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as info:
        run_analytic_descent(start, ring, config, NoiseSpec())
    assert str(info.value) == f"non-finite energy in the {where}"
    _assert_finite_records(info.value.trace)


@pytest.mark.parametrize(
    "optimizer, where",
    [(run_analytic_descent, "outer 1 inner 3"), (run_natural_gradient, "outer 3 inner 0")],
    ids=["analytic_descent", "natural_gradient"],
)
def test_a_non_finite_step_is_refused_by_both_optimizers(monkeypatch, optimizer, where):
    ring, start = _ring3_start()
    _nan_from_call(monkeypatch, "regularized_natural_direction", 3)
    config = OptimizerConfig(step_size=0.01, max_outer=5, max_inner=40)
    with np.errstate(invalid="ignore"), pytest.raises(DivergenceError) as info:
        optimizer(start, ring, config, NoiseSpec())
    assert str(info.value) == f"non-finite parameters at {where}; step_size 0.01 diverged"
    trace = info.value.trace
    assert len(trace.records) == 3  # outer 0, then two inner records or NG steps
    _assert_finite_records(trace)


def test_natural_gradient_started_within_the_threshold_converges_at_once():
    config = OptimizerConfig(step_size=0.01)
    trace = run_natural_gradient(_rx(np.pi), Z_FIELD, config, NoiseSpec())
    assert trace.metadata["exit"] == "converged"
    assert len(trace.records) == 1
    assert (trace.final.cumulative_cost, trace.final.cumulative_raw_queries) == (0.0, 0)
    assert np.array_equal(trace.theta, [np.pi])


def test_spin_ring_descent_regression():
    ring = spin_ring_hamiltonian(3, 0.05, np.random.default_rng(4).uniform(-1, 1, 3))
    ansatz = build_hardware_efficient(3, 1)
    start = ansatz.rebased(
        np.random.default_rng(6).uniform(-0.5, 0.5, ansatz.num_parameters)
    )
    config = OptimizerConfig(step_size=0.01, max_outer=60, record_inner_every=0)
    trace = run_analytic_descent(start, ring, config, NoiseSpec())
    assert trace.metadata["exit"] == "converged"
    assert trace.final.outer <= 25
    assert trace.final.distance_to_ground < 1e-3
    assert trace.final.cumulative_cost == 2.0 * trace.final.outer


@pytest.mark.parametrize("frozen_metric", [True, False], ids=["frozen", "per_step"])
def test_metric_factorizations_per_step(monkeypatch, frozen_metric):
    """A frozen metric is factorized once per outer step, a per-step metric
    once per inner step (each inner step solves one direction)."""
    calls = []
    factor = metric_module.cho_factor

    def counted(*args, **kwargs):
        calls.append(args)
        return factor(*args, **kwargs)

    monkeypatch.setattr(metric_module, "cho_factor", counted)
    ring = spin_ring_hamiltonian(3, 0.05, np.random.default_rng(4).uniform(-1, 1, 3))
    ansatz = build_hardware_efficient(3, 1)
    start = ansatz.rebased(
        np.random.default_rng(6).uniform(-0.5, 0.5, ansatz.num_parameters)
    )
    config = OptimizerConfig(
        step_size=0.01, max_outer=3, max_inner=40, frozen_metric=frozen_metric,
        record_inner_every=0,
    )
    trace = run_analytic_descent(start, ring, config, NoiseSpec())
    steps = [e["steps"] for e in trace.metadata["inner_exits"]]
    assert len(steps) == 3 and min(steps) >= 1 and sum(steps) > 3
    assert len(calls) == (len(steps) if frozen_metric else sum(steps))


def _ring3_start(seed=6):
    ring = spin_ring_hamiltonian(3, 0.05, np.random.default_rng(4).uniform(-1, 1, 3))
    ansatz = build_hardware_efficient(3, 1)
    shift = np.random.default_rng(seed).uniform(-0.5, 0.5, ansatz.num_parameters)
    return ring, ansatz.rebased(shift)


def test_gate_table_is_built_once_per_gate_sequence(monkeypatch):
    """Every rebased circuit of a run, the oracle's sweep and the per-step
    metric's sweeps read one gate table: the start circuit builds it and
    ``rebased`` hands it on, so both runs from one start build it once."""
    ring, start = _ring3_start()
    counts = _counting(monkeypatch, ansatz_module, ("_gate_table_of",))
    config = OptimizerConfig(step_size=0.01, max_outer=3, max_inner=40, frozen_metric=False)
    trace = run_analytic_descent(start, ring, config, NoiseSpec())
    assert len(trace.metadata["inner_exits"]) == 3
    run_natural_gradient(start, ring, config, NoiseSpec())
    assert counts["_gate_table_of"] == 1


def _counting(monkeypatch, module, names):
    """Replace each of ``names`` in ``module`` by a wrapper counting its calls."""
    counts = dict.fromkeys(names, 0)

    def counted(name, fn):
        def wrapped(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapped

    for name in names:
        monkeypatch.setattr(module, name, counted(name, getattr(module, name)))
    return counts


@pytest.mark.parametrize("frozen_metric", [True, False], ids=["frozen", "per_step"])
def test_traced_descent_boundaries_are_called_once_per_step(monkeypatch, frozen_metric):
    """The benchmark's traced spans (descent -> surrogate and metric) see one
    direction solve per inner step, and one surrogate gradient per step, per
    stationary exit and per similarity check; counting changes no exit."""
    ring, start = _ring3_start()
    config = OptimizerConfig(
        step_size=0.01, max_outer=3, max_inner=40, frozen_metric=frozen_metric,
        feedback_period=4, feedback_tolerance=1e6, similarity_feedback=True,
        similarity_abort=2.5, record_inner_every=0,
    )
    cases = [(start, ring), (_rx(0.0), Z_FIELD)]  # the second is stationary
    untraced = [run_analytic_descent(c, h, config, NoiseSpec()) for c, h in cases]
    names = ("eval_gradient", "regularized_natural_direction")
    for (circuit, h), reference in zip(cases, untraced):
        counts = _counting(monkeypatch, descent, names)
        trace = run_analytic_descent(circuit, h, config, NoiseSpec())
        exits = trace.metadata["inner_exits"]
        assert exits == reference.metadata["inner_exits"]
        assert trace.records == reference.records
        steps = sum(e["steps"] for e in exits)
        stationary = sum(e["reason"] == "stationary" for e in exits)
        # no feedback exit at this tolerance: each feedback record checks similarity
        similarity_checks = sum(r.phase == "feedback" for r in trace.records)
        assert counts["regularized_natural_direction"] == steps
        assert counts["eval_gradient"] == steps + stationary + similarity_checks
        monkeypatch.undo()
    assert {e["reason"] for e in untraced[1].metadata["inner_exits"]} == {"stationary"}
    assert sum(r.phase == "feedback" for r in untraced[0].records) >= 6


def test_schedule_bookkeeping_is_built_once_per_run(monkeypatch):
    """With the schedule memo empty, two runs at one ν build the schedule
    once between them."""
    ring, start = _ring3_start()
    surrogate._canonical_schedule.cache_clear()
    counts = _counting(monkeypatch, descent, ("query_schedule", "estimate_coefficients"))
    config = OptimizerConfig(
        step_size=0.01, max_outer=3, max_inner=40, record_inner_every=0,
    )
    traces = [run_analytic_descent(start, ring, config, NoiseSpec()) for _ in range(2)]
    assert traces[0].records == traces[1].records
    assert counts["estimate_coefficients"] == 2 * traces[0].final.outer == 6
    assert counts["query_schedule"] == 2
    assert surrogate._canonical_schedule.cache_info().misses == 1


def test_outer_record_reuses_the_last_recorded_energy(monkeypatch):
    """With every inner step recorded, the outer record after each inner
    loop takes the true energy of the record at the same angles instead of
    simulating them again; the value is bit-identical either way."""
    ring, start = _ring3_start()
    runs = {}
    for every in (0, 1):
        config = OptimizerConfig(
            step_size=0.01, max_outer=3, max_inner=40, frozen_metric=True,
            record_inner_every=every,
        )
        counts = _counting(monkeypatch, descent, ("energy",))
        trace = runs[every] = run_analytic_descent(start, ring, config, NoiseSpec())
        monkeypatch.undo()
        exits = trace.metadata["inner_exits"]
        steps = sum(e["steps"] for e in exits)
        assert min(e["steps"] for e in exits) >= 1
        # the start's record, then one per inner record or one per outer step
        assert counts["energy"] == 1 + (steps if every else len(exits))
    outer = [[r for r in runs[every].records if r.phase == "outer"] for every in (0, 1)]
    assert outer[0] == outer[1]


def test_inner_records_leave_the_trajectory_unchanged():
    """A per-step metric taken from an inner record's sweep is the metric
    qfi_exact gives there: how often inner records are taken changes no
    outer or feedback record."""
    ring = spin_ring_hamiltonian(3, 0.05, np.random.default_rng(4).uniform(-1, 1, 3))
    ansatz = build_hardware_efficient(3, 1)
    start = ansatz.rebased(
        np.random.default_rng(6).uniform(-0.5, 0.5, ansatz.num_parameters)
    )
    runs = {}
    for every in (0, 1, 3):
        config = OptimizerConfig(
            step_size=0.01, max_outer=4, max_inner=40, feedback_period=4,
            feedback_tolerance=1e-3, record_inner_every=every,
        )
        trace = run_analytic_descent(start, ring, config, NoiseSpec())
        exits = trace.metadata["inner_exits"]
        inner = [r for r in trace.records if r.phase == "inner"]
        assert len(inner) == (sum(e["steps"] // every for e in exits) if every else 0)
        runs[every] = ([r for r in trace.records if r.phase != "inner"], exits)
    kept, exits = runs[0]
    assert {r.phase for r in kept} == {"outer", "feedback"}
    assert {e["reason"] for e in exits} == {"max_inner", "trust_radius", "feedback"}
    assert runs[1] == runs[0] and runs[3] == runs[0]


def _trace_bytes(trace, path):
    write_trace_csv(trace, path)
    return path.read_bytes()


def test_trust_radius_just_under_half_pi_exits_on_the_radius(monkeypatch, tmp_path):
    """At trust_radius = π/2 − 1e-9 the walk leaves on the radius; the
    surrogate gradient is only asked inside it, so no TrustRegionError."""
    config = OptimizerConfig(
        step_size=0.5, max_outer=1, max_inner=200, trust_radius=0.5 * np.pi - 1e-9,
        feedback_period=3, record_inner_every=2,
    )
    asked = []
    gradient = descent.eval_gradient

    def recording(model, theta):
        asked.append(np.abs(theta).max())
        return gradient(model, theta)

    monkeypatch.setattr(descent, "eval_gradient", recording)
    traces = [run_analytic_descent(_rx(0.1), Z_FIELD, config, NoiseSpec()) for _ in range(2)]
    (exit_,) = traces[0].metadata["inner_exits"]
    assert exit_["reason"] == "trust_radius" and exit_["steps"] > 3
    assert asked and max(asked) < config.trust_radius
    assert abs(traces[0].theta[0] - 0.1) >= config.trust_radius
    first, second = (_trace_bytes(t, tmp_path / f"{i}.csv") for i, t in enumerate(traces))
    assert first == second


def test_one_parameter_runs_under_frozen_and_per_step_metrics(monkeypatch, tmp_path):
    """ν = 1 under both metrics: a single RX's metric is 1 everywhere, so the
    two walks are the same, and each rerun writes the same bytes.  The metric
    is 1 only to rounding: a per-step metric can differ from θ₀'s in its last
    bits, and the walk's θ by an ulp or two.  So the test asserts its premise
    first: each outer step starts from the same θ₀ under both metrics, bit
    for bit, and the walks' θ agree to within 4 ulps at every step."""
    gradient = descent.eval_gradient
    walked = {}
    written = {}
    for frozen in (True, False):
        reached = walked[frozen] = []

        def recording(model, theta, reached=reached):
            reached.append((model.theta0.tobytes(), theta))
            return gradient(model, theta)

        monkeypatch.setattr(descent, "eval_gradient", recording)
        config = OptimizerConfig(
            step_size=0.01, max_outer=4, max_inner=15, frozen_metric=frozen,
            feedback_period=4, record_inner_every=3, convergence_threshold=1e-9,
        )
        traces = [run_analytic_descent(_rx(2.0), Z_FIELD, config, NoiseSpec()) for _ in range(2)]
        assert traces[0].metadata["exit"] == "budget"
        assert {e["reason"] for e in traces[0].metadata["inner_exits"]} == {"max_inner"}
        assert any(r.phase == "inner" for r in traces[0].records)
        runs = [_trace_bytes(t, tmp_path / f"{frozen}{i}.csv") for i, t in enumerate(traces)]
        assert runs[0] == runs[1]
        written[frozen] = runs[0]
    pairs = list(zip(walked[True], walked[False]))
    assert len(pairs) == 2 * 4 * 15
    same_start = all(start == start_ for (start, _), (start_, _) in pairs)
    close = all(
        np.abs(theta - theta_).max() <= 4 * np.spacing(np.abs(theta).max())
        for (_, theta), (_, theta_) in pairs
    )
    assert same_start and close, (
        "the per-step walk left the frozen one: its metric's last-bit deviations "
        "from θ₀'s no longer round away (see the CHANGES.md FOUND line on this "
        "test passing only by a rounding coincidence)"
    )
    assert written[True] == written[False]


# ------------------------------------------------- natural-gradient runs


def test_natural_gradient_matches_scalar_recurrence():
    """Single rotation, eta 0: every step is t <- t + step*sin(t) on the
    absolute angle, independently recomputable without the optimizer."""
    config = OptimizerConfig(
        step_size=0.1, eta=0.0, max_outer=500, convergence_threshold=1e-3,
    )
    trace = run_natural_gradient(_rx(0.3), Z_FIELD, config, NoiseSpec())
    assert trace.metadata["exit"] == "converged"
    angle = 0.3
    steps = 0
    while abs(np.cos(angle) + 1.0) >= 1e-3:
        angle += 0.1 * np.sin(angle)
        steps += 1
    assert trace.final.outer == steps
    assert steps < 120
    assert abs(trace.theta[0] - angle) < 1e-9


def test_natural_gradient_cost_accounting():
    config = OptimizerConfig(step_size=0.1, max_outer=5)
    trace = run_natural_gradient(_rx(2.0), parse_pauli_sum("0.1 Z"), config, NoiseSpec())
    assert trace.metadata["exit"] == "budget"
    assert [r.cumulative_cost for r in trace.records] == [float(i) for i in range(6)]
    assert [r.cumulative_raw_queries for r in trace.records] == [2 * i for i in range(6)]
    assert all(r.energy_model is None for r in trace.records)


def test_natural_gradient_flat_at_exact_stationary_point():
    config = OptimizerConfig(step_size=0.1, max_outer=4)
    trace = run_natural_gradient(_rx(0.0), Z_FIELD, config, NoiseSpec())
    assert all(r.energy_true == 1.0 for r in trace.records)


def test_natural_gradient_noise_determinism():
    rng = np.random.default_rng(45)
    circuit = random_circuit(rng, 2, 4, spread=1.0)
    h = random_hamiltonian(rng, 2, 4)
    noise = NoiseSpec(enabled=True, relative_gradient_precision=0.2, rng_seed=8)
    config = OptimizerConfig(step_size=0.05, max_outer=20)
    a = run_natural_gradient(circuit, h, config, noise, rng_seed=3)
    b = run_natural_gradient(circuit, h, config, noise, rng_seed=3)
    c = run_natural_gradient(circuit, h, config, noise, rng_seed=4)
    assert a.records == b.records
    assert a.records != c.records


def test_natural_gradient_divergence():
    huge = parse_pauli_sum("1e200 Z")
    with np.errstate(over="ignore"), pytest.raises(DivergenceError):
        run_natural_gradient(_rx(2.0), huge, OptimizerConfig(step_size=1e200), NoiseSpec())


# ------------------------------------------------------- traces and CSV


def test_trace_rejects_decreasing_counters():
    trace = OptimizationTrace()
    trace.append(TraceRecord("outer", 0, 0, 2.0, 10, -1.0, None, 0.5))
    with pytest.raises(ValueError, match="must not decrease"):
        trace.append(TraceRecord("outer", 1, 0, 1.0, 12, -1.0, None, 0.5))
    with pytest.raises(ValueError, match="must not decrease"):
        trace.append(TraceRecord("outer", 1, 0, 3.0, 6, -1.0, None, 0.5))


def test_cost_to_reach():
    trace = OptimizationTrace()
    trace.append(TraceRecord("outer", 0, 0, 0.0, 0, 1.0, None, 2.0))
    trace.append(TraceRecord("outer", 1, 0, 2.0, 11, 0.0, -0.1, 1.0))
    trace.append(TraceRecord("outer", 2, 0, 4.0, 22, -0.9, -0.95, 0.1))
    assert cost_to_reach(trace, 10.0) == 0.0
    assert cost_to_reach(trace, 0.5) == 4.0
    assert cost_to_reach(trace, 0.01) is None


def test_csv_round_trip_is_exact(tmp_path):
    rng = np.random.default_rng(51)
    circuit = random_circuit(rng, 2, 4, spread=1.0)
    h = random_hamiltonian(rng, 2, 4)
    config = OptimizerConfig(
        step_size=0.01, max_outer=3, record_inner_every=2, feedback_period=5,
    )
    noise = NoiseSpec(enabled=True, relative_gradient_precision=0.1, rng_seed=6)
    trace = run_analytic_descent(circuit, h, config, noise, rng_seed=2)
    assert trace.records[0].energy_model is None  # blank cell exercised
    path = tmp_path / "trace.csv"
    write_trace_csv(trace, path)
    again = read_trace_csv(path)
    assert again.records == trace.records


_EDGE_FLOATS = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -2.5e-310, 1e300, -1e300]),
    st.floats(allow_nan=False, allow_infinity=False),
)
_BIG_INTS = st.integers(0, 2**80)
_EDGE_MAGNITUDES = _EDGE_FLOATS.map(abs)  # cost and distance are never negative


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(
    rows=st.lists(
        st.tuples(
            st.sampled_from(["outer", "inner", "feedback"]),
            _BIG_INTS, _BIG_INTS, _EDGE_MAGNITUDES, _BIG_INTS, _EDGE_FLOATS,
            st.none() | _EDGE_FLOATS, _EDGE_MAGNITUDES,
        ),
        max_size=6,
    )
)
def test_csv_round_trip_keeps_every_field_bit_for_bit(tmp_path_factory, rows):
    # Cumulative counters are sorted so the trace accepts the records.
    costs = sorted(row[3] for row in rows)
    queries = sorted(row[4] for row in rows)
    trace = OptimizationTrace()
    for row, cost, raw in zip(rows, costs, queries):
        trace.append(TraceRecord(row[0], row[1], row[2], cost, raw, *row[5:]))
    path = tmp_path_factory.getbasetemp() / "round_trip.csv"
    write_trace_csv(trace, path)
    again = read_trace_csv(path)
    # repr tells -0.0 from 0.0 and an int from a float
    assert [[repr(v) for v in vars(r).values()] for r in again.records] == [
        [repr(v) for v in vars(r).values()] for r in trace.records
    ]


def test_csv_header_and_field_validation(tmp_path):
    bad_header = tmp_path / "bad_header.csv"
    bad_header.write_text("phase,outer\nouter,0\n")
    with pytest.raises(ValueError, match="header"):
        read_trace_csv(bad_header)
    bad_row = tmp_path / "bad_row.csv"
    bad_row.write_text(",".join(TRACE_COLUMNS) + "\nouter,0,0\n")
    with pytest.raises(ValueError, match=r"bad_row\.csv:2"):
        read_trace_csv(bad_row)


def _trace_file(tmp_path, *rows):
    path = tmp_path / "trace.csv"
    lines = [",".join(TRACE_COLUMNS), *(",".join(row) for row in rows)]
    path.write_text("\n".join(lines) + "\n")
    return path


_ROW = ("outer", "0", "0", "1", "5", "-1.0", "", "0.5")


def test_csv_field_errors_name_the_file_line_and_column(tmp_path):
    bad = list(_ROW)
    bad[5] = "abc"
    path = _trace_file(tmp_path, _ROW, bad)
    with pytest.raises(ValueError, match=r"trace\.csv:3: energy_true: could not convert"):
        read_trace_csv(path)
    bad = list(_ROW)
    bad[4] = "5.5"
    path = _trace_file(tmp_path, bad)
    with pytest.raises(ValueError, match=r"trace\.csv:2: cumulative_raw_queries: invalid"):
        read_trace_csv(path)


@pytest.mark.parametrize("column", [3, 5, 6, 7])
@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
def test_csv_refuses_non_finite_floats_by_line_and_column(tmp_path, column, text):
    bad = list(_ROW)
    bad[column] = text
    path = _trace_file(tmp_path, _ROW, _ROW, bad)
    name = TRACE_COLUMNS[column]
    with pytest.raises(ValueError, match=rf"trace\.csv:4: {name}: non-finite value '{text}'"):
        read_trace_csv(path)


def test_csv_decreasing_counters_name_the_line_and_column(tmp_path):
    for column, text in [(3, "0.5"), (4, "4")]:
        bad = list(_ROW)
        bad[column] = text
        path = _trace_file(tmp_path, _ROW, bad)
        name = TRACE_COLUMNS[column]
        with pytest.raises(ValueError, match=rf"trace\.csv:3: {name}: .* must not decrease"):
            read_trace_csv(path)


@pytest.mark.parametrize(
    "column, text, message",
    [
        (0, "bogus", "expected one of"),
        (1, "-1", "negative value -1"),
        (2, "-5", "negative value -5"),
        (3, "-1.0", "negative value -1.0"),
        (4, "-1", "negative value -1"),
        (7, "-0.5", "negative value -0.5"),
    ],
)
def test_csv_refuses_rows_the_writer_cannot_produce(tmp_path, column, text, message):
    """An unknown phase and a negative step index, cost, query count or
    distance are refused by line and column; the writer makes none of them."""
    bad = list(_ROW)
    bad[column] = text
    path = _trace_file(tmp_path, bad)
    name = TRACE_COLUMNS[column]
    with pytest.raises(ValueError, match=rf"trace\.csv:2: {name}: {message}"):
        read_trace_csv(path)
