"""Two-loop surrogate descent, the natural-gradient baseline, and traces.

The optimizer's outer loop alternates an estimation phase (build the
trigonometric surrogate at the current reference from 2ν²+ν+1 simulated
energy queries) with the classical inner loop ``_walk`` (natural-gradient
steps on the surrogate until one of its five exits), then rebases the
circuit reference and repeats.  The baseline takes conventional
natural-gradient steps on the true landscape at 2ν queries each.

Costs are tracked in gradient-step-equivalent units: one per baseline step,
two per estimation phase; raw query counts are tracked alongside.  Both
optimizers make every device request, step and record through
``_Recorder``: its ledger charges each request and draws its noise from a
``surrogate._query_rng`` stream keyed by (noise seed, run seed, iteration,
channel, index), so re-runs are bit-reproducible, and it raises
``DivergenceError`` at the first non-finite parameter or energy.
"""

from __future__ import annotations

import csv
import operator
from dataclasses import dataclass, field, fields

import numpy as np

from .ansatz import AnsatzCircuit, energy, energy_gradient
from .metric import energy_gradient_metric, qfi_exact, qfi_from_tangents
from .metric import regularized_natural_direction
from .simulator import ground_energy
from .surrogate import (
    HALF_PI,
    CircuitOracle,
    NoiseLevels,
    _query_rng,
    estimate_coefficients,
    eval_energy,
    eval_gradient,
    query_schedule,
)

# Applied to every per-query std so a vanishing reference gradient never
# requests infinitely many shots.
NOISE_FLOOR = 1e-8

# Inner steps stop early once the surrogate gradient is this flat; the
# remaining steps would move θ by less than rounding.
_STATIONARY_GRADIENT = 1e-13


class DivergenceError(RuntimeError):
    """Optimization produced a non-finite value; carries the partial trace."""

    def __init__(self, message: str, trace: "OptimizationTrace"):
        super().__init__(message)
        self.trace = trace


def _refuse_non_finite(settings) -> None:
    """Raise naming the first float field of a settings dataclass that is NaN or ±inf."""
    for f in fields(settings):
        value = getattr(settings, f.name)
        if f.type == "float" and not np.isfinite(value):
            raise ValueError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class NoiseSpec:
    """Shot-noise switch and target relative gradient precision."""

    enabled: bool = False
    relative_gradient_precision: float = 0.1
    rng_seed: int = 0

    def __post_init__(self):
        _refuse_non_finite(self)
        if self.relative_gradient_precision <= 0.0:
            raise ValueError(
                f"relative gradient precision must be > 0, got "
                f"{self.relative_gradient_precision}"
            )
        try:
            operator.index(self.rng_seed)
        except TypeError:
            raise ValueError(f"rng_seed must be an integer, got {self.rng_seed}") from None
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be non-negative, got {self.rng_seed}")


@dataclass(frozen=True)
class OptimizerConfig:
    """Step sizes, budgets, and inner-loop termination settings.

    ``feedback_period`` 0 disables the periodic device check; when on,
    ``similarity_feedback`` additionally compares the surrogate gradient
    direction against a (noisy) device parameter-shift gradient and aborts
    the inner loop when 1−f exceeds ``similarity_abort``.
    ``record_inner_every`` 0 keeps traces to outer/feedback records only.
    """

    step_size: float
    eta: float = 0.01
    max_outer: int = 50
    max_inner: int = 10_000
    trust_radius: float = 0.2
    feedback_period: int = 0
    feedback_tolerance: float = 1e-2
    convergence_threshold: float = 1e-3
    similarity_abort: float = 5e-2
    similarity_feedback: bool = False
    frozen_metric: bool = False
    record_inner_every: int = 1

    def __post_init__(self):
        _refuse_non_finite(self)
        if self.step_size <= 0.0:
            raise ValueError(f"step_size must be > 0, got {self.step_size}")
        if self.eta < 0.0:
            raise ValueError(f"eta must be >= 0, got {self.eta}")
        if not 0.0 < self.trust_radius < HALF_PI:
            raise ValueError(
                f"trust_radius must lie in (0, π/2), got {self.trust_radius}"
            )
        for name in ("max_outer", "max_inner"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1, got {getattr(self, name)}")
        for name in ("feedback_period", "record_inner_every"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        for name in ("feedback_tolerance", "convergence_threshold", "similarity_abort"):
            if getattr(self, name) <= 0.0:
                raise ValueError(f"{name} must be > 0, got {getattr(self, name)}")


@dataclass(frozen=True)
class TraceRecord:
    phase: str  # outer | inner | feedback
    outer: int
    inner: int
    cumulative_cost: float
    cumulative_raw_queries: int
    energy_true: float
    energy_model: float | None
    distance_to_ground: float


def _finite_float(text: str) -> float:
    value = float(text)
    if not np.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


# The trace CSV's columns are TraceRecord's fields in order; each field's
# annotation picks its (writer, reader) pair.  Floats print with 17
# significant digits, so they read back bit for bit.
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))
_CSV_TYPES = {
    "str": (str, str),
    "int": (str, int),
    "float": ("%.17g".__mod__, _finite_float),
    "float | None": (
        lambda value: "" if value is None else "%.17g" % value,
        lambda text: None if text == "" else _finite_float(text),
    ),
}


@dataclass(eq=False)
class OptimizationTrace:
    records: list[TraceRecord] = field(default_factory=list)
    # method, ground_energy, exit; analytic descent: inner_exits, one per _walk
    metadata: dict = field(default_factory=dict)
    theta: np.ndarray | None = None  # last absolute parameters, set at the end

    def append(self, record: TraceRecord) -> None:
        if self.records:
            last = self.records[-1]
            cost_fell = record.cumulative_cost < last.cumulative_cost
            if cost_fell or record.cumulative_raw_queries < last.cumulative_raw_queries:
                column = "cumulative_cost" if cost_fell else "cumulative_raw_queries"
                raise ValueError(f"{column}: cumulative cost and query counts must not decrease")
        self.records.append(record)

    @property
    def final(self) -> TraceRecord:
        return self.records[-1]


def cost_to_reach(trace: OptimizationTrace, threshold: float) -> float | None:
    """Cumulative cost at the first record within ``threshold`` of ground."""
    for record in trace.records:
        if record.distance_to_ground < threshold:
            return record.cumulative_cost
    return None


def one_minus_f(g1, g2) -> float:
    """Directional error 1 − ⟨g1,g2⟩/(‖g1‖‖g2‖) ∈ [0, 2]; 0 if either is 0."""
    g1 = np.asarray(g1, dtype=float)
    g2 = np.asarray(g2, dtype=float)
    n1 = float(np.linalg.norm(g1))
    n2 = float(np.linalg.norm(g2))
    if n1 == 0.0 or n2 == 0.0:
        return 0.0
    return 1.0 - float(np.dot(g1, g2)) / (n1 * n2)


def precision_policy(g_norm: float, nu: int, spec: NoiseSpec) -> NoiseLevels:
    """Per-class raw-query stds targeting a fixed relative gradient precision.

    The combined eB coefficient (two queries) gets std r·‖g‖/√ν, so each of
    its raw queries gets that over √2; the single-query eA/eC classes get
    the coarser r·‖g‖, and each of the four eD queries r·‖g‖/2.  Everything
    is floored at 1e-8.
    """
    if not 0.0 <= g_norm < np.inf:
        raise ValueError(f"gradient norm must be finite and >= 0, got {g_norm}")
    r = spec.relative_gradient_precision
    eps_b = r * g_norm / np.sqrt(nu)
    eps = r * g_norm
    return NoiseLevels(
        sigma_a=max(eps, NOISE_FLOOR),
        sigma_b=max(eps_b / np.sqrt(2.0), NOISE_FLOOR),
        sigma_c=max(eps, NOISE_FLOOR),
        sigma_d=max(0.5 * eps, NOISE_FLOOR),
    )


class _Recorder:
    """One run's trace, ground energy, and ledger of device requests.

    Every step and record of both optimizers goes through it, and so does
    every device request: ``estimate``, ``feedback`` and ``device_gradient``
    are the only code that charges cost units and raw queries or draws shot
    noise, which ``feedback`` and ``device_gradient`` draw themselves.  A draw
    comes from the ``_query_rng`` stream keyed (noise seed, run seed, ...)
    below, at the index given; every σ is floored at ``NOISE_FLOOR``, and r
    is the relative gradient precision:

    ============  =====  =======  ====================  =====================
    request       units  queries  σ per query           stream, index
    ============  =====  =======  ====================  =====================
    estimation    2      2ν²+ν+1  ``precision_policy``  (outer, 0), position
    feedback      0      1        estimation's σ_a      (outer, 2), check
    similarity    0      2ν       r·‖g(θ₀)‖/√ν          (outer, 3), check
    NG step       1      2ν       r·‖g(θ)‖/√ν           (step,), 1
    ============  =====  =======  ====================  =====================

    ``record`` decides convergence: an outer record within ``threshold`` of
    the ground energy sets the exit to "converged".  ``step`` and ``record``
    are the run's divergence guard: non-finite parameters, or a non-finite
    true or model energy in any phase, raise ``DivergenceError`` with the
    trace so far.
    """

    def __init__(self, method, h, threshold, noise, rng_seed):
        self.ground = ground_energy(h)
        self.threshold = threshold
        self.noise = noise
        self.seed = (noise.rng_seed, rng_seed)
        self.levels = None  # the outer step's, set by ``estimate`` when noisy
        self.g_norm = 0.0  # ‖g(θ₀)‖ of the outer step
        self.cost = 0.0
        self.raw = 0
        self.trace = OptimizationTrace(
            metadata={"method": method, "ground_energy": self.ground, "exit": "budget"}
        )

    def estimate(self, oracle, schedule, outer):
        """The surrogate at the oracle's θ₀, at noise levels set by its ‖g‖."""
        g = oracle.gradient
        self.g_norm = float(np.linalg.norm(g))
        if self.noise.enabled:
            self.levels = precision_policy(self.g_norm, g.size, self.noise)
        self.cost += 2.0
        self.raw += len(schedule)
        key = self.seed + (outer, 0)
        return estimate_coefficients(oracle, schedule, self.levels, rng_seed=key)

    def feedback(self, e_true, e_model, outer, check):
        """|device − surrogate energy| at one θ, for one raw query: ``e_true``
        is ``energy`` at θ₀+θ, plus a σ_a draw when the outer step is noisy,
        and ``e_model`` is ``eval_energy`` at θ.  Noiseless it is the pure
        truncation defect, which vanishes for ν = 1 (the full series)."""
        self.raw += 1
        if self.levels is not None:
            rng = _query_rng(self.seed + (outer, 2), check)
            e_true += self.levels.sigma_a * rng.standard_normal()
        return abs(e_true - e_model)

    def device_gradient(self, g, g_norm, units, *key):
        """The exact gradient ``g`` as the device's 2ν-query parameter-shift
        gradient: charged ``units`` plus 2ν queries, with std r·``g_norm``/√ν
        on every entry when noisy, drawn from stream ``key[:-1]``, index
        ``key[-1]``."""
        self.cost += units
        self.raw += 2 * g.size
        if not self.noise.enabled:
            return g
        r = self.noise.relative_gradient_precision
        sigma = max(r * g_norm / np.sqrt(g.size), NOISE_FLOOR)
        return g + sigma * _query_rng(self.seed + key[:-1], key[-1]).standard_normal(g.size)

    def step(self, theta, step_size, direction, outer, inner):
        """θ − step_size·direction and its ‖·‖∞, which must be finite."""
        theta = theta - step_size * direction
        norm = np.abs(theta).max()  # NaN and inf propagate through max
        if not norm < np.inf:
            where = f"outer {outer} inner {inner}; step_size {step_size} diverged"
            raise DivergenceError(f"non-finite parameters at {where}", self.trace)
        return theta, norm

    def record(self, phase, outer, inner, e_true, e_model=None) -> bool:
        """Append one record; True when it is an outer record that converged."""
        if not np.isfinite(e_true) or e_model is not None and not np.isfinite(e_model):
            where = f"the {phase} record at outer {outer} inner {inner}"
            raise DivergenceError(f"non-finite energy in {where}", self.trace)
        distance = abs(e_true - self.ground)
        self.trace.append(TraceRecord(
            phase, outer, inner, self.cost, self.raw, e_true, e_model, distance
        ))
        if phase == "outer" and distance < self.threshold:
            self.trace.metadata["exit"] = "converged"
            return True
        return False

    def finish(self, theta) -> OptimizationTrace:
        self.trace.theta = np.array(theta, dtype=float)
        return self.trace


def _walk(run, outer, model, current, h, metric, config):
    """The inner loop: natural-gradient steps on ``model`` from θ = 0.

    The θ₀ ``metric`` serves the first step, and every step under
    ``frozen_metric``; otherwise a step takes the exact metric at its θ from
    the sweep a record or check ran there, else from ``qfi_exact``.  A check
    reuses the energies and sweep gradient taken for it.  Returns θ, the exit
    reason, the steps taken, and the (true, model) energies held at θ or None:

    - "stationary": the surrogate gradient is flat; the steps before it;
    - "trust_radius": a step left ‖θ‖∞ < ``trust_radius``; that step counts;
    - "feedback", "similarity": a check's energy deviation, or its 1−f
      against the device gradient, is too large; the steps up to the check;
    - "max_inner": all ``max_inner`` steps.
    """
    step_size, eta, trust_radius = config.step_size, config.eta, config.trust_radius
    max_inner, frozen_metric = config.max_inner, config.frozen_metric
    record_every, feedback_period = config.record_inner_every, config.feedback_period
    theta = np.zeros(model.nu)
    held = None
    checks = 0
    for inner in range(1, max_inner + 1):
        g_model = eval_gradient(model, theta)
        if np.abs(g_model).max() < _STATIONARY_GRADIENT:
            return theta, "stationary", inner - 1, held
        if metric is None:
            metric = qfi_exact(current, theta)
        direction = regularized_natural_direction(metric, eta, g_model)
        theta, norm = run.step(theta, step_size, direction, outer, inner)
        if not frozen_metric:
            metric = None
        outside = not norm < trust_radius
        record = record_every and inner % record_every == 0
        check = feedback_period and not outside and inner % feedback_period == 0
        held = None
        if record or check:
            e_model = eval_energy(model, theta)
            # a sweep's metric serves the next step, when the walk goes on
            if metric is None and not (outside or inner == max_inner):
                e_true, g_true, metric = energy_gradient_metric(current, theta, h)
            else:
                e_true, g_true = energy(current, theta, h), None
            held = e_true, e_model
            if record:
                run.record("inner", outer, inner, e_true, e_model)
        if outside:
            return theta, "trust_radius", inner, held
        if check:
            checks += 1
            deviation = run.feedback(e_true, e_model, outer, checks)
            run.record("feedback", outer, inner, e_true, e_model)
            if deviation > config.feedback_tolerance:
                return theta, "feedback", inner, held
            if config.similarity_feedback:
                if g_true is None:
                    g_true = energy_gradient(current, theta, h)
                device_grad = run.device_gradient(g_true, run.g_norm, 0, outer, 3, checks)
                g_model = eval_gradient(model, theta)  # at the device's θ
                if one_minus_f(g_model, device_grad) > config.similarity_abort:
                    return theta, "similarity", inner, held
    return theta, "max_inner", max_inner, held


def run_analytic_descent(
    circuit: AnsatzCircuit,
    h,
    config: OptimizerConfig,
    noise: NoiseSpec,
    rng_seed: int = 0,
) -> OptimizationTrace:
    """Alternate surrogate estimation and natural-gradient descent on it.

    The outer loop: each step estimates the surrogate at θ₀ (2 cost units,
    2ν²+ν+1 raw queries; the oracle's sweep there gives the gradient that
    sets the noise levels and the walk's first metric), walks it with
    ``_walk``, rebases the circuit at the walk's θ and records both energies
    there.  Feedback checks add their queries.  Converged when the true
    energy is within ``convergence_threshold`` of the exact ground energy.
    """
    zeros = np.zeros(circuit.num_parameters)
    # The first simulation refuses an H on another register before the
    # ledger solves its ground energy.
    e_start = energy(circuit, zeros, h)
    run = _Recorder("analytic_descent", h, config.convergence_threshold, noise, rng_seed)
    inner_exits = run.trace.metadata["inner_exits"] = []
    current = circuit
    if run.record("outer", 0, 0, e_start):
        return run.finish(current.theta_ref)

    schedule = query_schedule(circuit.num_parameters)
    for outer in range(1, config.max_outer + 1):
        oracle = CircuitOracle(current, h)
        model = run.estimate(oracle, schedule, outer)
        metric = qfi_from_tangents(oracle.psi, oracle.tangents)
        theta, reason, steps, held = _walk(run, outer, model, current, h, metric, config)
        inner_exits.append({"outer": outer, "reason": reason, "steps": steps})

        current = current.rebased(theta)
        # The energies held at the walk's last θ are the rebased circuit's:
        # ``rebased`` adds θ to θ₀ as ``energy`` does.
        if held is None:
            held = energy(current, zeros, h), None
        e_true, e_model = held
        if e_model is None:
            e_model = eval_energy(model, theta)
        if run.record("outer", outer, steps, e_true, e_model):
            break
    return run.finish(current.theta_ref)


def run_natural_gradient(
    circuit: AnsatzCircuit,
    h,
    config: OptimizerConfig,
    noise: NoiseSpec,
    rng_seed: int = 0,
) -> OptimizationTrace:
    """Conventional natural-gradient baseline: 1 cost unit, 2ν queries/step.

    The per-step gradient is the exact parameter-shift gradient plus, when
    noise is on, an independent Gaussian of std r·‖g‖/√ν on every entry;
    ``max_outer`` caps the number of steps.  One ``energy_gradient_metric``
    sweep per point gives the energy recorded there and the next step's g, F.
    """
    theta = np.zeros(circuit.num_parameters)
    # The first simulation refuses an H on another register before the
    # ledger solves its ground energy.
    e_true, g, metric = energy_gradient_metric(circuit, theta, h)
    run = _Recorder("natural_gradient", h, config.convergence_threshold, noise, rng_seed)
    if run.record("outer", 0, 0, e_true):
        return run.finish(circuit.theta_ref + theta)

    for step in range(1, config.max_outer + 1):
        g = run.device_gradient(g, float(np.linalg.norm(g)), 1, step, 1)
        direction = regularized_natural_direction(metric, config.eta, g)
        theta, _ = run.step(theta, config.step_size, direction, step, 0)
        e_true, g, metric = energy_gradient_metric(circuit, theta, h)
        if run.record("outer", step, 0, e_true):
            break
    return run.finish(circuit.theta_ref + theta)


def write_trace_csv(trace: OptimizationTrace, path) -> None:
    """Persist records in the fixed column order; model energy blank if absent."""
    columns = [(f.name, _CSV_TYPES[f.type][0]) for f in fields(TraceRecord)]
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(TRACE_COLUMNS)
        for r in trace.records:
            writer.writerow([write(getattr(r, name)) for name, write in columns])


# Row checks only the reader makes: fields the writer cannot produce.
_PHASES = ("outer", "inner", "feedback")
_NON_NEGATIVE = (
    "outer", "inner", "cumulative_cost", "cumulative_raw_queries", "distance_to_ground"
)


def read_trace_csv(path) -> OptimizationTrace:
    """Read a ``write_trace_csv`` file; a malformed or non-finite field, an
    unknown phase, a negative count, cost or distance, or a decreasing
    counter raises ``ValueError`` naming its line and column."""
    readers = [_CSV_TYPES[f.type][1] for f in fields(TraceRecord)]
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != TRACE_COLUMNS:
        raise ValueError(f"{path}: missing or wrong trace header")
    trace = OptimizationTrace()
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(TRACE_COLUMNS):
            raise ValueError(f"{path}:{number}: expected {len(TRACE_COLUMNS)} fields")
        values = []
        for name, read, text in zip(TRACE_COLUMNS, readers, row):
            try:
                values.append(read(text))
            except ValueError as exc:
                raise ValueError(f"{path}:{number}: {name}: {exc}") from None
        record = TraceRecord(*values)
        if record.phase not in _PHASES:
            raise ValueError(
                f"{path}:{number}: phase: expected one of {_PHASES}, got {record.phase!r}"
            )
        for name in _NON_NEGATIVE:
            value = getattr(record, name)
            if value < 0:
                raise ValueError(f"{path}:{number}: {name}: negative value {value}")
        try:
            trace.append(record)
        except ValueError as exc:
            raise ValueError(f"{path}:{number}: {exc}") from None
    return trace
