"""Trigonometric surrogate: schedule, coefficient estimation, evaluation,
gradients, variance propagation, Hessian extraction, and the untruncated
brute-force oracle."""

import json
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import minimize

from analytic_descent import (
    AnsatzCircuit,
    CircuitOracle,
    PauliString,
    SurrogateModel,
    TrustRegionError,
    build_hardware_efficient,
    energy,
    energy_gradient,
    estimate_coefficients,
    eval_energy,
    eval_gradient,
    extract_gradient_hessian,
    gradient_variance,
    gradient_variance_by_class,
    model_from_json,
    model_to_json,
    parse_pauli_sum,
    query_schedule,
    spin_ring_hamiltonian,
)
from analytic_descent import surrogate
from analytic_descent.surrogate import (
    NoiseLevels,
    QueryPoint,
    _division_free_energy,
    _first_normals,
    _query_rng,
    _seed_states,
    _SeedState,
)
from conftest import (
    FullTrigExpansion,
    brute_force_energy,
    eval_gradient_reference,
    fourier_components,
    random_circuit,
    random_hamiltonian,
)

HALF_PI = 0.5 * np.pi


def _rx_model(theta0=0.0):
    circuit = AnsatzCircuit(1, (PauliString("X"),), [theta0])
    h = parse_pauli_sum("1 Z")
    return estimate_coefficients(CircuitOracle(circuit, h), query_schedule(1))


# ---------------------------------------------------------------- schedule


def test_schedule_count_formula():
    for nu in (1, 2, 10, 84):
        assert len(query_schedule(nu)) == 2 * nu * nu + nu + 1


def test_schedule_single_parameter_points():
    shifts = [tuple(p.shift(1)) for p in query_schedule(1)]
    assert shifts == [(0.0,), (HALF_PI,), (-HALF_PI,), (np.pi,)]


def test_schedule_canonical_order_two_parameters():
    kinds = [(p.kind, p.axes) for p in query_schedule(2)]
    assert kinds == [
        ("A", ()),
        ("B+", (0,)), ("B-", (0,)), ("B+", (1,)), ("B-", (1,)),
        ("C", (0,)), ("C", (1,)),
        ("D++", (0, 1)), ("D--", (0, 1)), ("D-+", (0, 1)), ("D+-", (0, 1)),
    ]


def test_schedule_points_are_distinct_and_sparse():
    nu = 5
    seen = set()
    for p in query_schedule(nu):
        shift = p.shift(nu)
        key = tuple(shift)
        assert key not in seen
        seen.add(key)
        nonzero = shift[shift != 0.0]
        assert len(nonzero) <= 2
        assert all(abs(v) == HALF_PI or v == np.pi for v in nonzero)


def test_schedule_indices_are_positions():
    for position, point in enumerate(query_schedule(4)):
        assert point.index == position


# ------------------------------------------------- coefficient estimation


def test_single_qubit_coefficients_at_origin():
    model = _rx_model(0.0)
    assert model.eA == 1.0
    assert np.allclose(model.eB, [0.0], atol=1e-15)
    assert np.allclose(model.eC, [-1.0], atol=1e-15)
    assert model.varA == 0.0
    assert np.array_equal(model.varB, [0.0])


def test_single_qubit_coefficient_shifted_reference():
    # E(t) = cos(pi/4 + t), so eB = cos(3pi/4) - cos(-pi/4) = -sqrt(2)
    model = _rx_model(np.pi / 4)
    assert abs(model.eB[0] + np.sqrt(2.0)) < 1e-12
    assert abs(0.5 * model.eB[0] + np.sin(np.pi / 4)) < 1e-12


def test_estimation_rejects_partial_schedule():
    oracle = CircuitOracle(AnsatzCircuit(1, (PauliString("X"),)), parse_pauli_sum("1 Z"))
    with pytest.raises(ValueError, match="does not match any full"):
        estimate_coefficients(oracle, query_schedule(1)[:-1])


def test_estimation_refuses_an_oracle_of_another_size_before_any_query():
    """An oracle's theta0 must have the schedule's ν entries, in both
    directions and for both oracle kinds; a refused callable is never asked."""
    rng = np.random.default_rng(43)
    oracle = CircuitOracle(random_circuit(rng, 2, 8), random_hamiltonian(rng, 2, 4))
    for nu in (6, 10):
        message = f"oracle has 8 parameters, but the schedule is for ν = {nu}$"
        with pytest.raises(ValueError, match=message):
            estimate_coefficients(oracle, query_schedule(nu))

    calls = []

    class Counted:
        def __init__(self, size):
            self.theta0 = np.zeros(size)

        def __call__(self, shift):
            calls.append(shift)
            return 0.0

    for size, nu in ((8, 6), (6, 8)):
        message = f"oracle has {size} parameters, but the schedule is for ν = {nu}$"
        with pytest.raises(ValueError, match=message):
            estimate_coefficients(Counted(size), query_schedule(nu))
    assert calls == []
    estimate_coefficients(Counted(2), query_schedule(2))
    assert len(calls) == 11


def test_schedule_energies_refuses_a_point_on_a_missing_axis():
    rng = np.random.default_rng(47)
    oracle = CircuitOracle(random_circuit(rng, 2, 3), random_hamiltonian(rng, 2, 4))
    last_axis = [QueryPoint(5, "C", (2,)), QueryPoint(9, "D++", (0, 2))]
    assert len(oracle.schedule_energies(last_axis)) == 2
    for point in (QueryPoint(7, "B-", (3,)), QueryPoint(20, "D-+", (1, 4))):
        message = (
            f"query point {point.index} ({point.kind}, axes {point.axes}) "
            "shifts an axis the 3-parameter circuit lacks"
        )
        for route in (
            lambda: oracle.schedule_energies([QueryPoint(0, "A", ()), point]),
            lambda: point.shift(3),
        ):
            with pytest.raises(ValueError, match=re.escape(message)):
                route()


def test_estimation_rejects_a_schedule_of_no_canonical_length():
    """The point count alone fixes ν; any other count, none included, is refused."""
    point = QueryPoint(0, "A", ())
    for size in (0, 1, 2, 3, 5, 10, 12, 3570, 3572):
        with pytest.raises(ValueError, match="does not match any full"):
            estimate_coefficients(lambda shift: 0.0, [point] * size)
    with pytest.raises(ValueError, match=r"is not query_schedule\(42\)"):
        estimate_coefficients(lambda shift: 0.0, [point] * 3571)


def test_estimation_rejects_a_repeated_or_misplaced_point():
    """Only the canonical schedule, or a sequence equal to it, is accepted:
    a repeated, misplaced, reindexed or reordered point is refused."""
    rng = np.random.default_rng(23)
    circuit = random_circuit(rng, 2, 2)
    oracle = CircuitOracle(circuit, random_hamiltonian(rng, 2, 4))
    schedule = query_schedule(2)
    assert schedule[3] == QueryPoint(3, "B+", (1,))
    shuffled = list(schedule)
    np.random.default_rng(1).shuffle(shuffled)
    assert shuffled != list(schedule)
    broken = [shuffled, tuple(shuffled)]
    for position, point in (
        (3, QueryPoint(3, "B+", (0,))),
        (5, QueryPoint(5, "C", (2,))),
        (7, QueryPoint(7, "D++", (1, 0))),
        (4, QueryPoint(3, "B-", (1,))),
        (4, QueryPoint(2**64 + 4, "B-", (1,))),
    ):
        copy = list(schedule)
        copy[position] = point
        broken.append(copy)
    for other in broken:
        with pytest.raises(ValueError, match=r"is not query_schedule\(2\) point for point"):
            estimate_coefficients(oracle, other)
    levels = NoiseLevels(0.05, 0.04, 0.03, 0.02)
    straight = estimate_coefficients(oracle, schedule, levels, rng_seed=(1, 2))
    copied = estimate_coefficients(oracle, list(schedule), levels, rng_seed=(1, 2))
    assert model_to_json(copied) == model_to_json(straight)


def test_query_points_reject_an_unknown_kind_or_a_wrong_axis_count():
    for kind, axes, message in (
        ("C", (0, 1), r"C points shift 1 axis\(es\), got axes \(0, 1\)"),
        ("A", (1,), r"A points shift 0 axis\(es\)"),
        ("D++", (0,), r"D\+\+ points shift 2 axis\(es\)"),
        ("E", (), "unknown query kind 'E'"),
    ):
        with pytest.raises(ValueError, match=message):
            QueryPoint(0, kind, axes)


def test_query_points_reject_negative_or_repeated_axes():
    """A negative axis would wrap to the last one, and a repeated pair axis
    would shift one axis once: both are refused, naming the axes."""
    for kind, axes in (("C", (-1,)), ("B+", (-3,)), ("D-+", (0, -1)), ("D++", (3, 3))):
        with pytest.raises(ValueError, match=re.escape(f"non-negative axes, got axes {axes}")):
            QueryPoint(0, kind, axes)
    assert QueryPoint(0, "D+-", (1, 0)).shift(3).tolist() == [-HALF_PI, HALF_PI, 0.0]


def test_query_schedule_is_one_immutable_tuple_per_nu():
    schedule = query_schedule(3)
    assert isinstance(schedule, tuple)
    assert query_schedule(3) is schedule
    assert query_schedule(np.int64(3)) is schedule
    assert query_schedule(4) is not schedule
    with pytest.raises(TypeError):
        schedule[0] = QueryPoint(0, "A", ())


def test_a_schedule_of_no_parameters_is_refused():
    with pytest.raises(ValueError, match="parameter count must be >= 1, got 0"):
        query_schedule(0)


def test_oracle_failure_names_the_query_point():
    class Faulty:
        theta0 = np.zeros(2)

        def __call__(self, shift):
            if abs(shift[0] - np.pi) < 1e-12:
                raise RuntimeError("device fault")
            return 0.0

    with pytest.raises(RuntimeError, match=r"query point 5 \(C, axes \(0,\)\)"):
        estimate_coefficients(Faulty(), query_schedule(2))


def test_noise_levels_reject_a_negative_or_non_finite_std():
    names = [f.name for f in fields(NoiseLevels)]
    for position, name in enumerate(names):
        for bad in (-0.1, -np.inf, np.inf, np.nan):
            levels = [0.1, 0.2, 0.3, 0.4]
            levels[position] = bad
            with pytest.raises(ValueError, match=f"{name} must be a finite std >= 0"):
                NoiseLevels(*levels)
    assert NoiseLevels(0, 0.0, 1e-8, 2).sigma_d == 2


def test_noisy_variance_fields():
    levels = NoiseLevels(sigma_a=0.1, sigma_b=0.2, sigma_c=0.3, sigma_d=0.4)
    rng = np.random.default_rng(19)
    circuit = random_circuit(rng, 2, 3)
    h = random_hamiltonian(rng, 2, 4)
    model = estimate_coefficients(
        CircuitOracle(circuit, h), query_schedule(3), levels, rng_seed=7
    )
    assert model.varA == 0.1**2
    assert np.allclose(model.varB, 2.0 * 0.2**2)  # two raw queries per eB
    assert np.allclose(model.varC, 0.3**2)
    upper = np.triu_indices(3, 1)
    assert np.allclose(model.varD[upper], 4.0 * 0.4**2)  # four raw queries
    assert np.all(np.tril(model.varD) == 0.0)


def test_noise_is_keyed_by_point_not_by_order():
    """Same seed must give bit-identical coefficients whatever the worker count."""
    rng = np.random.default_rng(29)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 4)
    schedule = query_schedule(4)
    nu = 4
    table = {
        tuple(p.shift(nu)): energy(circuit, p.shift(nu), h) for p in schedule
    }

    class Table:
        theta0 = circuit.theta_ref

        def __call__(self, shift):
            return table[tuple(shift)]

    levels = NoiseLevels(0.05, 0.05, 0.05, 0.05)
    straight = estimate_coefficients(Table(), schedule, levels, rng_seed=3)
    threaded = estimate_coefficients(Table(), schedule, levels, rng_seed=3, max_workers=4)
    assert model_to_json(threaded) == model_to_json(straight)


def test_one_oracle_builds_its_cache_once_whatever_max_workers(monkeypatch):
    builds = []
    build = CircuitOracle._build_cache

    def counted(self):
        builds.append(self)
        build(self)

    monkeypatch.setattr(CircuitOracle, "_build_cache", counted)
    rng = np.random.default_rng(31)
    circuit = random_circuit(rng, 3, 6)
    h = random_hamiltonian(rng, 3, 6)
    levels = NoiseLevels(0.05, 0.05, 0.05, 0.05)
    threaded = estimate_coefficients(
        CircuitOracle(circuit, h), query_schedule(6), levels, rng_seed=5, max_workers=4
    )
    assert len(builds) == 1
    serial = estimate_coefficients(
        CircuitOracle(circuit, h), query_schedule(6), levels, rng_seed=5
    )
    assert model_to_json(threaded) == model_to_json(serial)


@pytest.mark.parametrize(
    "part", [0, 2**32 - 1, 2**32, 2**64 + 5, np.int64(7), np.uint64(2**64 - 1)]
)
def test_query_rng_draws_equal_the_seed_sequence_of_the_key(part):
    # (3, part, 1, 0) + [index] is an estimation's query.  4-part keys are
    # (noise seed, run seed, step) + [1] for an NG gradient and (…, 0) + [4]
    # for the CLI's start; 5-part keys, (…, outer, 2 or 3) + [check], a walk's.
    keys = ((part,), (3, part, 1, 0), (3, part, 7), (3, part, 7, 2), (3, 5, part, 3))
    for key in keys:
        for index in (0, 1, 17, part):
            expected = np.random.default_rng(list(key) + [index]).standard_normal(4)
            assert np.array_equal(_query_rng(key, index).standard_normal(4), expected)
    expected = np.random.default_rng([part, 9]).standard_normal(4)
    assert np.array_equal(_query_rng(part, 9).standard_normal(4), expected)
    # The precomputed rows: indices are one 32-bit word each (larger ones
    # are refused); the key's parts may take any number of words.
    indices = [0, 17, 2**32 - 1]
    for key in (0, part, (part,), (3, part, 1, 0)):
        parts = list(key) if isinstance(key, tuple) else [key]
        states = _seed_states(key, indices)
        for index, state in zip(indices, states):
            seeds = np.random.SeedSequence(parts + [index])
            assert np.array_equal(state, seeds.generate_state(4, np.uint64))
            expected = np.random.default_rng(parts + [index]).standard_normal(4)
            drawn = _query_rng(key, index, state).standard_normal(4)
            assert np.array_equal(drawn, expected)


def test_query_rng_rejects_negative_key_parts():
    for key, index in (((0, -1, 2), 3), (-4, 0), ((1, 2), -1)):
        with pytest.raises(ValueError, match="non-negative"):
            _query_rng(key, index)
        with pytest.raises(ValueError, match="non-negative"):
            _seed_states(key, [5, index])


@pytest.mark.parametrize(
    "key, index, part",
    [
        ((0, 1.5), 0, "1.5"),
        (0.5, 0, "0.5"),
        ((3, np.float64(2.0)), 1, "2.0"),
        ((0, 1), 1.5, "1.5"),
    ],
)
def test_a_non_integer_noise_key_part_is_refused(key, index, part):
    """A part is taken as an integer, not truncated to one: (0, 1.5) would
    otherwise draw exactly what (0, 1) draws.  The batched seeds refuse a
    non-integer index with the same message."""
    message = f"noise key parts must be integers, got {part}$"
    with pytest.raises(ValueError, match=message):
        _query_rng(key, index)
    with pytest.raises(ValueError, match=message):
        _seed_states(key, [index])


@pytest.mark.parametrize("index", [2**32, 2**63 - 1])
def test_seed_states_refuse_indices_past_one_word(index):
    for key in (0, (3, 2**64 + 5, 1, 0)):
        with pytest.raises(ValueError, match=f"below 2\\*\\*32, got {index}"):
            _seed_states(key, [5, index])
    assert _seed_states(3, []).shape == (0, 4)


_KEY_PART = st.integers(0, 2**70)


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(
    key=st.one_of(_KEY_PART, st.lists(_KEY_PART, min_size=1, max_size=4).map(tuple)),
    first=st.one_of(st.integers(0, 2**16), st.integers(0, 2**32 - 400)),
    extra=st.lists(st.integers(0, 2**32 - 1), max_size=20),
)
def test_vectorized_draws_equal_one_default_rng_per_query(key, first, extra):
    # ~1.5% of draws leave the ziggurat's fast path: about 6 of the 400
    # consecutive indices in every example.
    indices = list(range(first, first + 400)) + extra
    parts = list(key) if isinstance(key, tuple) else [key]
    expected = [np.random.default_rng(parts + [i]).standard_normal() for i in indices]
    drawn = _first_normals(key, indices, _seed_states(key, indices))
    assert drawn.tobytes() == np.array(expected).tobytes()


def _row_with_first_output(output: int, sequence: int) -> list[int]:
    """A `_seed_states` row whose PCG64 gives ``output`` first.

    Seeding gives (inc + init)·M + inc with inc = 2·sequence + 1; one more
    step must land on ``output`` (high limb 0, which XSL-RR leaves as is).
    """
    mod, mult = 1 << 128, surrogate._PCG_MULT
    inc = (2 * sequence + 1) % mod
    init = ((output - inc * (mult + 1)) * pow(mult * mult, -1, mod) - inc) % mod
    return [init >> 64, init & (1 << 64) - 1, sequence >> 64, sequence & (1 << 64) - 1]


def test_rows_off_the_ziggurat_fast_path_use_their_own_generator(monkeypatch):
    top = (1 << 52) - 1  # above every layer's bound
    off = [(0, top), (1, 1), (1, top), (7, top), (255, top)]  # (layer, magnitude)
    on = [(0, 1), (2, 5), (200, 12345), (255, 1 << 40)]
    outputs = [
        magnitude << 9 | sign << 8 | layer
        for layer, magnitude in off + on
        for sign in (0, 1)
    ]
    states = np.array(
        [_row_with_first_output(o, 0x9E3779B97F4A7C15 * (i + 1)) for i, o in enumerate(outputs)],
        dtype=np.uint64,
    )
    indices = list(range(len(states)))
    expected = []
    for index, (row, output) in enumerate(zip(states, outputs)):
        assert np.random.PCG64(_SeedState(row)).random_raw() == output
        expected.append(_query_rng(3, index, row).standard_normal())
    calls = []
    reference = surrogate._query_rng

    def counted(rng_seed, index, state=None):
        calls.append(index)
        return reference(rng_seed, index, state)

    monkeypatch.setattr(surrogate, "_query_rng", counted)
    drawn = _first_normals(3, indices, states)
    assert drawn.tobytes() == np.array(expected).tobytes()
    assert calls == list(range(2 * len(off)))  # each row off the path, once


def test_ziggurat_bounds_refuse_a_generator_that_draws_otherwise(monkeypatch):
    # A wrong PCG64 multiplier stands in for a numpy whose draws differ.
    monkeypatch.setattr(surrogate, "_PCG_MULT", surrogate._PCG_MULT + 2)
    surrogate._ziggurat_tables.cache_clear()
    try:
        with pytest.raises(RuntimeError, match=f"numpy {np.__version__}"):
            surrogate._ziggurat_tables()
    finally:
        surrogate._ziggurat_tables.cache_clear()


@pytest.mark.parametrize(
    "nu, key, levels",
    [
        (1, 4, NoiseLevels(0.05, 0.06, 0.07, 0.08)),
        (2, (0, 2**32 + 1, 3, 0), NoiseLevels(0.05, 0.0, 0.07, 0.08)),
        (42, (0, 1, 1, 0), NoiseLevels(0.01, 0.02, 0.03, 0.04)),
    ],
)
def test_batched_noise_equals_one_default_rng_per_query(nu, key, levels):
    rng = np.random.default_rng(41 + nu)
    circuit = random_circuit(rng, 3, nu)
    oracle = CircuitOracle(circuit, random_hamiltonian(rng, 3, 6))
    schedule = query_schedule(nu)
    parts = list(key) if isinstance(key, tuple) else [key]
    clean = oracle.schedule_energies(schedule)
    table = {tuple(p.shift(nu)): value for p, value in zip(schedule, clean)}
    sigmas = dict(zip("ABCD", (levels.sigma_a, levels.sigma_b, levels.sigma_c, levels.sigma_d)))
    values = {}
    for point, value in zip(schedule, clean):
        sigma = sigmas[point.kind[0]]
        if sigma > 0.0:
            draw = np.random.default_rng(parts + [point.index]).standard_normal()
            value += sigma * draw
        values[point.kind, point.axes] = value
    eB = np.array([values["B+", (k,)] - values["B-", (k,)] for k in range(nu)])
    eC = np.array([values["C", (k,)] for k in range(nu)])
    eD = np.zeros((nu, nu))
    for k in range(nu):
        for l in range(k + 1, nu):
            pair = [values[kind, (k, l)] for kind in ("D++", "D--", "D-+", "D+-")]
            eD[k, l] = ((pair[0] + pair[1]) - pair[2]) - pair[3]
    reference = SurrogateModel(
        circuit.theta_ref, values["A", ()], eB, eC, eD,
        levels.sigma_a**2,
        np.full(nu, 2.0 * levels.sigma_b**2),
        np.full(nu, levels.sigma_c**2),
        np.triu(np.full((nu, nu), 4.0 * levels.sigma_d**2), 1),
    )

    class Table:
        theta0 = circuit.theta_ref

        def __call__(self, shift):
            return table[tuple(shift)]

    tabled = estimate_coefficients(Table(), schedule, levels, rng_seed=key)
    assert model_to_json(tabled) == model_to_json(reference)
    # The circuit oracle takes eD from its sweep: the same draws, the other
    # coefficients and every variance bit for bit, eD to rounding.
    model = estimate_coefficients(oracle, schedule, levels, rng_seed=key)
    for f in fields(SurrogateModel):
        if f.name != "eD":
            assert np.array_equal(getattr(model, f.name), getattr(reference, f.name)), f.name
    assert np.max(np.abs(model.eD - reference.eD)) < 1e-12


def test_fast_oracle_agrees_with_pointwise_energies():
    """Dual route: batched schedule evaluator vs direct state preparation."""
    rng = np.random.default_rng(37)
    circuit = random_circuit(rng, 3, 6)
    h = random_hamiltonian(rng, 3, 8)
    schedule = query_schedule(6)
    fast = CircuitOracle(circuit, h).schedule_energies(schedule)
    naive = np.array([energy(circuit, p.shift(6), h) for p in schedule])
    assert np.max(np.abs(fast - naive)) < 1e-12


def test_an_eight_qubit_register_takes_the_sweep_route():
    # dim 256 takes the same sweep route as small registers
    rng = np.random.default_rng(41)
    circuit = random_circuit(rng, 8, 3)
    h = random_hamiltonian(rng, 8, 4)
    ring = AnsatzCircuit(
        8,
        tuple(
            PauliString(s)
            for s in ("YIIIIIII", "IYIIIIII", "ZZIIIIII", "IXIIIIII", "XXYIIIII")
        ),
        rng.uniform(-np.pi, np.pi, 5),
    )
    ring_h = spin_ring_hamiltonian(8, 1.0, rng.uniform(-1.0, 1.0, 8))
    for circuit, h in ((circuit, h), (ring, ring_h)):
        nu = circuit.num_parameters
        schedule = query_schedule(nu)
        values = np.array([energy(circuit, p.shift(nu), h) for p in schedule])
        oracle = CircuitOracle(circuit, h)
        assert np.max(np.abs(oracle.schedule_energies(schedule) - values)) < 1e-12
        by_point = {(p.kind, p.axes): value for p, value in zip(schedule, values)}
        eD = estimate_coefficients(oracle, schedule).eD
        for k in range(nu):
            for l in range(k + 1, nu):
                pair = [by_point[kind, (k, l)] for kind in ("D++", "D--", "D-+", "D+-")]
                assert abs(eD[k, l] - (((pair[0] + pair[1]) - pair[2]) - pair[3])) < 1e-12
    assert np.ptp(values) > 0.1  # the ring case has non-trivial energies


@settings(derandomize=True, database=None, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 3), nu=st.integers(1, 6))
@example(seed=0, n=1, nu=1)
@example(seed=1, n=3, nu=2)
def test_pair_block_is_the_four_point_combination(seed, n, nu):
    """Noiseless, the oracle's eD equals ((E₊₊ + E₋₋) − E₋₊) − E₊₋ of the
    pointwise pair energies to 1e-12·max|E| (ν = 1 has no pairs)."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n, nu)
    h = random_hamiltonian(rng, n, 5)
    schedule = query_schedule(nu)
    values = {(p.kind, p.axes): energy(circuit, p.shift(nu), h) for p in schedule}
    want = np.zeros((nu, nu))
    for k in range(nu):
        for l in range(k + 1, nu):
            pair = [values[kind, (k, l)] for kind in ("D++", "D--", "D-+", "D+-")]
            want[k, l] = ((pair[0] + pair[1]) - pair[2]) - pair[3]
    model = estimate_coefficients(CircuitOracle(circuit, h), schedule)
    scale = max(abs(value) for value in values.values())
    assert np.max(np.abs(model.eD - want)) <= 1e-12 * scale


def test_an_estimation_sweeps_once_and_prepares_no_point_alone(monkeypatch):
    """A ring6-size estimation (N = 6, ν = 42) builds the oracle's cache once,
    asks ``schedule_energies`` once, and prepares no schedule point on its own."""
    calls = dict.fromkeys(("energy", "_build_cache", "schedule_energies"), 0)

    def count(owner, name):
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)

    count(surrogate, "energy")
    count(CircuitOracle, "_build_cache")
    count(CircuitOracle, "schedule_energies")
    h = spin_ring_hamiltonian(6, 0.05, np.random.default_rng(7).uniform(-1.0, 1.0, 6))
    oracle = CircuitOracle(build_hardware_efficient(6, 2), h)
    levels = NoiseLevels(0.01, 0.02, 0.03, 0.04)
    estimate_coefficients(oracle, query_schedule(42), levels, rng_seed=(0, 1, 1, 0))
    assert calls == {"energy": 0, "_build_cache": 1, "schedule_energies": 1}


def test_oracle_agrees_with_pointwise_at_one_and_two_parameters():
    rng = np.random.default_rng(43)
    for nu in (1, 1, 2, 2):
        circuit = random_circuit(rng, 2, nu)
        h = random_hamiltonian(rng, 2, 5)
        schedule = query_schedule(nu)
        values = CircuitOracle(circuit, h).schedule_energies(schedule)
        naive = np.array([energy(circuit, p.shift(nu), h) for p in schedule])
        assert np.max(np.abs(values - naive)) < 1e-12


def test_stationary_point_suppresses_eB():
    # noiseless model at a stationary point carries eB = 0 to estimator precision
    model = _rx_model(0.0)
    assert np.max(np.abs(model.eB)) < 1e-14


# ------------------------------------------------------------ eval_energy


def test_eval_energy_at_origin_is_eA():
    rng = np.random.default_rng(43)
    circuit = random_circuit(rng, 2, 5)
    h = random_hamiltonian(rng, 2, 5)
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(5))
    assert eval_energy(model, np.zeros(5)) == model.eA


def test_single_parameter_model_is_exact_everywhere():
    model = _rx_model(0.3)
    for theta in np.linspace(-3.0, 3.0, 13):
        assert abs(eval_energy(model, [theta]) - np.cos(0.3 + theta)) < 1e-12


@settings(derandomize=True, database=None, max_examples=25, deadline=None)
@given(
    data=st.data(),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 4),
    nu=st.integers(1, 6),
)
def test_single_axis_slices_are_exact(data, seed, n, nu):
    """Along any coordinate axis the truncation drops nothing, so the model
    reproduces the true energy at arbitrary slice angles."""
    rng = np.random.default_rng(seed)
    circuit = random_circuit(rng, n, nu)
    h = random_hamiltonian(rng, n, 5)
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(nu))
    axis = data.draw(st.integers(0, nu - 1))
    for t in data.draw(st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=10)):
        theta = np.zeros(nu)
        theta[axis] = t
        assert abs(eval_energy(model, theta) - energy(circuit, theta, h)) < 1e-12


def test_pair_combination_is_reproduced():
    """The four-point combination that defines each pair coefficient is
    invariant: evaluating the model at the four (+-pi/2, +-pi/2) shifts and
    recombining returns eD exactly, even though the individual pair-point
    energies are not reproduced (the b*c and c*c cross words are dropped)."""
    rng = np.random.default_rng(53)
    circuit = random_circuit(rng, 3, 5)
    h = random_hamiltonian(rng, 3, 6)
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(5))
    for k in range(5):
        for l in range(k + 1, 5):
            combo = 0.0
            for sk, sl, sign in (
                (1, 1, 1.0), (-1, -1, 1.0), (-1, 1, -1.0), (1, -1, -1.0)
            ):
                theta = np.zeros(5)
                theta[k] = sk * HALF_PI
                theta[l] = sl * HALF_PI
                combo += sign * eval_energy(model, theta)
            assert abs(combo - model.eD[k, l]) < 1e-10


def test_pair_points_expose_the_truncation():
    """Known counterexample: RX then RY on one qubit has E = cos t1 cos t2;
    at (pi/2, pi/2) the true energy is 0 but the truncated model gives -1/4
    because the discarded two-axis cross words each contribute there."""
    circuit = AnsatzCircuit(1, (PauliString("X"), PauliString("Y")))
    h = parse_pauli_sum("1 Z")
    for t1, t2 in ((0.4, -0.9), (1.2, 0.3)):
        assert abs(energy(circuit, [t1, t2], h) - np.cos(t1) * np.cos(t2)) < 1e-12
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(2))
    point = np.array([HALF_PI, HALF_PI])
    assert abs(energy(circuit, point, h)) < 1e-12
    assert abs(eval_energy(model, point) + 0.25) < 1e-12


# Property tests of the two eval_energy routes: the closed form inside
# ‖θ‖∞ < π/2 and the division-free route everywhere.  Models are random
# coefficient sets, not estimated ones, so every word class is exercised.

_ROUTES = settings(derandomize=True, database=None, max_examples=60, deadline=None)
_COEFF = st.floats(-1.0, 1.0)


@st.composite
def _models(draw):
    nu = draw(st.integers(1, 6))
    eD = np.triu(draw(arrays(float, (nu, nu), elements=_COEFF)), 1)
    return SurrogateModel(
        np.zeros(nu),
        draw(_COEFF),
        draw(arrays(float, nu, elements=_COEFF)),
        draw(arrays(float, nu, elements=_COEFF)),
        eD,
    )


def _inside(nu):
    """θ with ‖θ‖∞ < π/2, including components within 1e-9 of ±π/2."""
    edge = st.floats(1e-15, 1e-9).map(lambda d: HALF_PI - d)
    component = st.one_of(
        st.floats(-HALF_PI, HALF_PI, exclude_min=True, exclude_max=True),
        edge,
        edge.map(lambda t: -t),
    )
    return arrays(float, nu, elements=component)


def _scale(model):
    # each monomial is at most 1 in magnitude, so this bounds every term
    return (
        abs(model.eA) + np.sum(np.abs(model.eB)) + np.sum(np.abs(model.eC))
        + np.sum(np.abs(model.eD))
    )


def _series_by_direct_products(model, theta):
    """The truncated series word by word, with masked products (reference)."""
    a, b, c = fourier_components(theta)
    nu = model.nu

    def rest(*skip):
        mask = np.ones(nu, dtype=bool)
        mask[list(skip)] = False
        return float(np.prod(a[mask]))

    value = rest() * model.eA
    for k in range(nu):
        value += rest(k) * (b[k] * model.eB[k] + c[k] * model.eC[k])
        for l in range(k + 1, nu):
            value += rest(k, l) * b[k] * b[l] * model.eD[k, l]
    return value


@_ROUTES
@given(data=st.data(), model=_models())
def test_closed_form_equals_division_free_route_inside_the_region(data, model):
    theta = data.draw(_inside(model.nu))
    closed = eval_energy(model, theta)
    assert abs(closed - _division_free_energy(model, theta)) <= 1e-13 * _scale(model)


@_ROUTES
@given(data=st.data(), model=_models())
def test_both_routes_match_the_word_by_word_series(data, model):
    anywhere = arrays(float, model.nu, elements=st.floats(-np.pi, np.pi))
    for theta in (data.draw(_inside(model.nu)), data.draw(anywhere)):
        reference = _series_by_direct_products(model, theta)
        assert abs(eval_energy(model, theta) - reference) <= 1e-13 * _scale(model)


@_ROUTES
@given(data=st.data(), model=_models())
def test_energy_is_continuous_across_the_region_boundary(data, model):
    theta = data.draw(_inside(model.nu))
    axis = data.draw(st.integers(0, model.nu - 1))
    for edge in (HALF_PI, -HALF_PI):
        on_edge = theta.copy()
        on_edge[axis] = edge  # ‖θ‖∞ = π/2: division-free route
        inside = theta.copy()
        inside[axis] = np.nextafter(edge, 0.0)  # one ulp inside: closed form
        gap = abs(eval_energy(model, on_edge) - eval_energy(model, inside))
        assert gap <= 1e-13 * _scale(model)


@_ROUTES
@given(model=_models())
def test_energy_at_the_origin_is_eA_exactly(model):
    assert eval_energy(model, np.zeros(model.nu)) == model.eA


# Property tests of the half-angle closed form that eval_energy (inside the
# region), eval_gradient and the variance share.  `_models` draws ν from 1
# to 6, and the derandomized examples include ν = 1.

_CLOSED_FORM = settings(derandomize=True, database=None, max_examples=50, deadline=None)
_EDGE_GAP = 1e-6


def _largest_coefficient(model):
    return max(
        abs(model.eA), *np.abs(model.eB), *np.abs(model.eC), np.max(np.abs(model.eD))
    )


def _up_to_the_edge(nu):
    """θ with |θₖ| ≤ π/2 − 1e-6, most components within 1e-3 of that bound."""
    bound = HALF_PI - _EDGE_GAP
    near = st.floats(bound - 1e-3, bound)
    component = st.one_of(
        st.floats(-bound, bound), near, near.map(lambda t: -t)
    )
    return arrays(float, nu, elements=component)


@_CLOSED_FORM
@given(data=st.data(), model=_models())
def test_gradient_matches_the_reference_route_up_to_the_edge(data, model):
    theta = data.draw(_up_to_the_edge(model.nu))
    reference = eval_gradient_reference(model, theta)
    deviation = np.max(np.abs(eval_gradient(model, theta) - reference))
    assert deviation <= 1e-12 * _largest_coefficient(model)


@_CLOSED_FORM
@given(data=st.data(), model=_models())
def test_closed_form_meets_the_division_free_route_just_inside_the_edge(data, model):
    # every axis within 1e-6 of ±π/2, where the closed form's q = 1 + t² → 2
    gaps = data.draw(arrays(float, model.nu, elements=st.floats(1e-15, _EDGE_GAP)))
    signs = data.draw(arrays(bool, model.nu))
    theta = np.where(signs, -1.0, 1.0) * (HALF_PI - gaps)
    closed = eval_energy(model, theta)
    assert abs(closed - _division_free_energy(model, theta)) <= 1e-14 * _scale(model)


@_CLOSED_FORM
@given(model=_models())
def test_closed_form_at_the_origin_is_eA_and_half_eB_exactly(model):
    origin = np.zeros(model.nu)
    assert eval_energy(model, origin) == model.eA
    assert np.array_equal(eval_gradient(model, origin), 0.5 * model.eB)


def test_eval_energy_length_mismatch():
    with pytest.raises(ValueError):
        eval_energy(_rx_model(), [0.1, 0.2])


def test_division_free_route_never_divides_by_a_vanishing_a():
    """An axis at exactly π, where a(π) = 0, next to one at −π/2: the
    division-free route takes its leave-out products from partial products
    of a, so it matches the word-by-word series with no NaN or infinity."""
    rng = np.random.default_rng(61)
    nu = 7
    eD = np.triu(rng.uniform(-1.0, 1.0, (nu, nu)), 1)
    model = SurrogateModel(
        np.zeros(nu), 0.7, rng.uniform(-1.0, 1.0, nu), rng.uniform(-1.0, 1.0, nu), eD
    )
    theta = rng.uniform(-np.pi, np.pi, nu)
    theta[2] = np.pi
    theta[5] = -HALF_PI
    value = eval_energy(model, theta)
    assert np.isfinite(value)
    assert abs(value - _series_by_direct_products(model, theta)) <= 1e-13 * _scale(model)


# ---------------------------------------------------------- eval_gradient


def test_gradient_at_origin_is_half_eB_bitwise():
    rng = np.random.default_rng(67)
    circuit = random_circuit(rng, 2, 6)
    h = random_hamiltonian(rng, 2, 5)
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(6))
    assert np.array_equal(eval_gradient(model, np.zeros(6)), 0.5 * model.eB)


def test_gradient_fast_path_matches_reference_route():
    """Dual route: O(nu^2) prefix/suffix formula vs direct masked products."""
    rng = np.random.default_rng(71)
    for _ in range(8):
        nu = int(rng.integers(2, 9))
        circuit = random_circuit(rng, 2, nu)
        h = random_hamiltonian(rng, 2, 5)
        model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(nu))
        theta = rng.uniform(-1.4, 1.4, nu)
        fast = eval_gradient(model, theta)
        slow = eval_gradient_reference(model, theta)
        assert np.max(np.abs(fast - slow)) < 1e-12


def test_gradient_matches_finite_differences_of_model():
    rng = np.random.default_rng(73)
    circuit = random_circuit(rng, 3, 6)
    h = random_hamiltonian(rng, 3, 6)
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(6))
    theta = rng.uniform(-0.2, 0.2, 6)
    grad = eval_gradient(model, theta)
    eps = 1e-5
    scale = max(1.0, np.max(np.abs(grad)))
    for k in range(6):
        shift = np.zeros(6)
        shift[k] = eps
        fd = (eval_energy(model, theta + shift) - eval_energy(model, theta - shift)) / (
            2.0 * eps
        )
        assert abs(grad[k] - fd) / scale < 1e-7


def test_single_parameter_gradient_closed_form():
    model = _rx_model(0.3)
    for theta in (-1.0, -0.2, 0.0, 0.7):
        got = eval_gradient(model, [theta])[0]
        assert abs(got + np.sin(0.3 + theta)) < 1e-12


def test_gradient_trust_region_enforced():
    model = _rx_model(0.0)
    with pytest.raises(TrustRegionError):
        eval_gradient(model, [HALF_PI])
    with pytest.raises(TrustRegionError):
        eval_gradient(model, [-1.8])


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize(
    "evaluate", [eval_energy, eval_gradient, gradient_variance, gradient_variance_by_class]
)
def test_every_evaluator_refuses_a_non_finite_theta(evaluate, value):
    """A NaN entry passes a ‖θ‖∞ ≥ π/2 compare and ±inf sends eval_energy
    to the division-free route; either way the evaluator returned NaN.  The
    entry is refused by name, not as a point outside the trust region."""
    model = SurrogateModel(
        np.zeros(2), 0.7, [0.3, -0.2], [0.1, 0.4], [[0.0, 0.5], [0.0, 0.0]],
        varA=0.01, varB=[0.02, 0.03], varC=[0.01, 0.01], varD=[[0.0, 0.04], [0.0, 0.0]],
    )
    with pytest.raises(ValueError, match="non-finite entries in theta") as info:
        evaluate(model, [0.1, value])
    assert not isinstance(info.value, TrustRegionError)


def test_reference_gradient_covers_the_boundary():
    # the masked-product route has no a(theta) division, so it stays valid
    # at and beyond pi/2 where the fast path refuses
    rng = np.random.default_rng(79)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 4)
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(4))
    theta = np.array([HALF_PI, np.pi, -2.0, 0.1])
    grad = eval_gradient_reference(model, theta)
    eps = 1e-6
    for k in range(4):
        shift = np.zeros(4)
        shift[k] = eps
        fd = (eval_energy(model, theta + shift) - eval_energy(model, theta - shift)) / (
            2.0 * eps
        )
        assert abs(grad[k] - fd) < 1e-6


# ------------------------------------------------------ variance handling


def test_gradient_variance_at_origin():
    levels = NoiseLevels(0.3, 0.2, 0.1, 0.25)
    rng = np.random.default_rng(83)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 4)
    model = estimate_coefficients(
        CircuitOracle(circuit, h), query_schedule(4), levels, rng_seed=11
    )
    got = gradient_variance(model, np.zeros(4))
    # only the B monomial has a nonzero derivative at 0: var = varB / 4
    assert np.allclose(got, model.varB / 4.0, atol=1e-18)


def test_gradient_variance_noiseless_is_zero():
    model = _rx_model(0.4)
    assert np.array_equal(gradient_variance(model, [0.1]), [0.0])


def test_by_class_decomposition_sums_to_total():
    levels = NoiseLevels(0.1, 0.1, 0.1, 0.1)
    rng = np.random.default_rng(89)
    circuit = random_circuit(rng, 2, 5)
    h = random_hamiltonian(rng, 2, 4)
    model = estimate_coefficients(
        CircuitOracle(circuit, h), query_schedule(5), levels, rng_seed=13
    )
    theta = rng.uniform(-0.3, 0.3, 5)
    parts = gradient_variance_by_class(model, theta)
    assert set(parts) == {"A", "B", "C", "D"}
    total = parts["A"] + parts["B"] + parts["C"] + parts["D"]
    assert np.allclose(total, gradient_variance(model, theta), atol=1e-18)


def test_eB_variance_dominates_near_origin():
    """With equal per-query noise the eB class carries >= 90% of the model
    gradient variance at displacement 0.1 (the other classes enter with
    sin^2-suppressed derivative monomials)."""
    levels = NoiseLevels(0.1, 0.1, 0.1, 0.1)
    rng = np.random.default_rng(97)
    circuit = random_circuit(rng, 3, 8)
    h = random_hamiltonian(rng, 3, 6)
    model = estimate_coefficients(
        CircuitOracle(circuit, h), query_schedule(8), levels, rng_seed=17
    )
    theta = np.full(8, 0.1)
    parts = gradient_variance_by_class(model, theta)
    total = sum(parts.values())
    share = np.sum(parts["B"]) / np.sum(total)
    assert share >= 0.90


# ----------------------------------------------------- gradient / Hessian


def test_extract_single_qubit_closed_form():
    g, hess = extract_gradient_hessian(_rx_model(0.0))
    assert np.allclose(g, [0.0], atol=1e-15)
    assert np.allclose(hess, [[-1.0]], atol=1e-14)


def test_extract_structure():
    rng = np.random.default_rng(101)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 4)
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(4))
    g, hess = extract_gradient_hessian(model)
    assert np.array_equal(g, 0.5 * model.eB)
    assert np.array_equal(hess, hess.T)
    assert np.allclose(np.diag(hess), 0.5 * (model.eC - model.eA))
    for k in range(4):
        for l in range(k + 1, 4):
            assert hess[k, l] == model.eD[k, l] / 4.0


def test_extract_matches_true_energy_derivatives():
    """Model gradient/Hessian vs central finite differences of the true
    energy at the reference point."""
    rng = np.random.default_rng(103)
    circuit = random_circuit(rng, 4, 6)
    h = random_hamiltonian(rng, 4, 8)
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(6))
    g, hess = extract_gradient_hessian(model)
    eps = 1e-3
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


def test_hessian_positive_semidefinite_at_found_optimum():
    rng = np.random.default_rng(107)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 5)
    res = minimize(
        lambda t: energy(circuit, t, h),
        np.zeros(4),
        jac=lambda t: energy_gradient(circuit, t, h),
        method="BFGS",
        options={"gtol": 1e-12},
    )
    optimum = circuit.rebased(res.x)
    model = estimate_coefficients(CircuitOracle(optimum, h), query_schedule(4))
    g, hess = extract_gradient_hessian(model)
    assert np.max(np.abs(g)) < 1e-8
    assert np.linalg.eigvalsh(hess).min() > -1e-8


# ---------------------------------------------------- reflection symmetry


def test_true_energy_asymmetry_shrinks_cubically_at_optimum():
    rng = np.random.default_rng(9)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 5)
    res = minimize(
        lambda t: energy(circuit, t, h),
        np.zeros(4),
        jac=lambda t: energy_gradient(circuit, t, h),
        method="BFGS",
        options={"gtol": 1e-12},
    )
    opt = circuit.rebased(res.x)
    radii = (0.05, 0.1, 0.2, 0.4)
    worst = []
    for radius in radii:
        sampler = np.random.default_rng(77)
        worst.append(max(
            abs(energy(opt, th, h) - energy(opt, -th, h))
            for th in (sampler.uniform(-radius, radius, 4) for _ in range(40))
        ))
    slope = np.polyfit(np.log10(radii), np.log10(worst), 1)[0]
    assert 2.5 < slope < 3.5


def test_slice_at_optimum_is_shifted_cosine():
    rng = np.random.default_rng(9)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 5)
    res = minimize(
        lambda t: energy(circuit, t, h),
        np.zeros(4),
        jac=lambda t: energy_gradient(circuit, t, h),
        method="BFGS",
        options={"gtol": 1e-12},
    )
    opt = circuit.rebased(res.x)
    ts = np.linspace(-np.pi, np.pi, 20)
    design = np.stack([np.cos(ts), np.ones_like(ts)], axis=1)
    for axis in range(4):
        v = np.zeros(4)
        v[axis] = 1.0
        slice_energies = np.array([energy(opt, t * v, h) for t in ts])
        coeffs, *_ = np.linalg.lstsq(design, slice_energies, rcond=None)
        assert np.max(np.abs(design @ coeffs - slice_energies)) < 1e-8


# ------------------------------------------------- brute-force expansion


def test_brute_force_single_parameter_slice():
    circuit = AnsatzCircuit(1, (PauliString("X"),), [0.2])
    h = parse_pauli_sum("1 Z")
    rng = np.random.default_rng(113)
    for t in rng.uniform(-np.pi, np.pi, 20):
        assert abs(brute_force_energy(circuit, h, [t]) - np.cos(0.2 + t)) < 1e-10


def test_brute_force_matches_simulator():
    rng = np.random.default_rng(127)
    for nu in (2, 4, 6):
        circuit = random_circuit(rng, 2, nu)
        h = random_hamiltonian(rng, 2, 5)
        full = FullTrigExpansion(circuit, h)
        for theta in rng.uniform(-np.pi, np.pi, (10, nu)):
            assert abs(full.energy(theta) - energy(circuit, theta, h)) < 1e-8


def test_brute_force_rejects_large_parameter_counts():
    rng = np.random.default_rng(131)
    circuit = random_circuit(rng, 2, 9)
    h = random_hamiltonian(rng, 2, 3)
    with pytest.raises(ValueError):
        FullTrigExpansion(circuit, h)


def test_truncation_defect_is_cubic():
    """|brute_force - eval_energy| scales as radius^3 for a 4-parameter
    circuit: the first dropped words carry three powers of (b, c)."""
    rng = np.random.default_rng(9)
    circuit = random_circuit(rng, 2, 4)
    h = random_hamiltonian(rng, 2, 5)
    full = FullTrigExpansion(circuit, h)
    model = estimate_coefficients(CircuitOracle(circuit, h), query_schedule(4))
    deltas = np.geomspace(0.02, 0.4, 6)
    means = []
    for delta in deltas:
        sampler = np.random.default_rng(5)
        errs = [
            abs(full.energy(th) - eval_energy(model, th))
            for th in (sampler.uniform(-delta, delta, 4) for _ in range(60))
        ]
        means.append(np.mean(errs))
    slope = np.polyfit(np.log10(deltas), np.log10(means), 1)[0]
    assert 2.5 < slope < 3.6


# ----------------------------------------------------------- persistence


def test_model_json_round_trip_noiseless():
    model = _rx_model(0.3)
    again = model_from_json(model_to_json(model))
    assert again.eA == model.eA
    assert np.array_equal(again.eB, model.eB)
    assert np.array_equal(again.eC, model.eC)
    assert np.array_equal(again.eD, model.eD)
    assert np.array_equal(again.theta0, model.theta0)


def test_model_json_round_trip_noisy():
    levels = NoiseLevels(0.1, 0.2, 0.3, 0.4)
    rng = np.random.default_rng(137)
    circuit = random_circuit(rng, 2, 3)
    h = random_hamiltonian(rng, 2, 4)
    model = estimate_coefficients(
        CircuitOracle(circuit, h), query_schedule(3), levels, rng_seed=23
    )
    again = model_from_json(model_to_json(model))
    assert np.array_equal(again.eB, model.eB)
    assert again.varA == model.varA
    assert np.array_equal(again.varB, model.varB)
    assert np.array_equal(again.varD, model.varD)


@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(data=st.data(), nu=st.integers(1, 4), noisy=st.booleans())
def test_model_json_round_trips_bit_for_bit(data, nu, noisy):
    finite = st.floats(allow_nan=False, allow_infinity=False)
    variance = st.floats(0.0, 1e300)

    def draw(shape, elements=finite):
        arr = data.draw(arrays(float, shape, elements=elements))
        return np.triu(arr, 1) if len(shape) == 2 else arr

    coefficients = [
        draw((nu,)), data.draw(finite), draw((nu,)), draw((nu,)), draw((nu, nu))
    ]
    variances = []
    if noisy:
        variances = [
            data.draw(variance), draw((nu,), variance), draw((nu,), variance),
            draw((nu, nu), variance),
        ]
    model = SurrogateModel(*coefficients, *variances)
    text = model_to_json(model)
    again = model_from_json(text)
    assert model_to_json(again) == text
    assert type(again.eA) is float and type(again.varA) is float
    for f in fields(SurrogateModel):  # bit for bit, -0.0 included
        assert np.array(getattr(again, f.name)).tobytes() == (
            np.array(getattr(model, f.name)).tobytes()
        )


def test_a_checkpoint_without_a_field_or_with_a_wrong_nu_is_refused_by_name():
    payload = json.loads(model_to_json(_rx_model(0.3)))
    with pytest.raises(ValueError, match="checkpoint has no field 'theta0'"):
        model_from_json("{}")
    for name in ("eB", "varA", "varD", "nu"):
        partial = {key: value for key, value in payload.items() if key != name}
        with pytest.raises(ValueError, match=f"checkpoint has no field '{name}'"):
            model_from_json(json.dumps(partial))
    with pytest.raises(ValueError, match="checkpoint field 'nu' is 2, but eB has 1 entries"):
        model_from_json(json.dumps(payload | {"nu": 2}))
    with pytest.raises(ValueError, match="checkpoint must be a JSON object"):
        model_from_json("[]")


def test_model_validation():
    with pytest.raises(ValueError):
        SurrogateModel(
            np.zeros(2), 1.0, np.zeros(3), np.zeros(2),
            np.zeros((2, 2)), 0.0, np.zeros(2), np.zeros(2), np.zeros((2, 2)),
        )
    lower = np.zeros((2, 2))
    lower[1, 0] = 0.5  # eD must stay strictly upper triangular
    with pytest.raises(ValueError):
        SurrogateModel(
            np.zeros(2), 1.0, np.zeros(2), np.zeros(2),
            lower, 0.0, np.zeros(2), np.zeros(2), np.zeros((2, 2)),
        )
    for eA in (np.nan, np.inf):
        with pytest.raises(ValueError, match="non-finite scalar coefficient"):
            SurrogateModel(np.zeros(1), eA, np.zeros(1), np.zeros(1), np.zeros((1, 1)))


def test_models_of_no_parameters_are_rejected_where_they_are_built():
    """ν = 0 is refused by the model class (and so by a checkpoint), not
    left to fail inside numpy at the first evaluation."""
    message = "parameter count must be >= 1, got 0"
    with pytest.raises(ValueError, match=message):
        SurrogateModel(np.zeros(0), 1.5, [], [], np.zeros((0, 0)))
    empty = {f.name: [] for f in fields(SurrogateModel)} | {"eA": 1.5, "varA": 0.0}
    with pytest.raises(ValueError, match=message):
        model_from_json(json.dumps(empty))
