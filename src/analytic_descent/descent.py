"""Two-loop surrogate descent, the natural-gradient baseline, and traces.

The optimizer's outer loop alternates an estimation phase (build the
trigonometric surrogate at the current reference from 2ν²+ν+1 simulated
energy queries) with the classical inner loop ``_walk`` (natural-gradient
steps on the surrogate until one of its five exits), then rebases the
circuit reference and repeats.  The baseline takes conventional
natural-gradient steps on the true landscape at 2ν queries each.

Costs are tracked in gradient-step-equivalent units: one per baseline step,
two per estimation phase; raw query counts are tracked alongside.  All
noise draws come from ``surrogate._query_rng`` streams keyed by (noise
seed, run seed, iteration, channel, index), so re-runs are bit-reproducible.
"""

from __future__ import annotations

import csv
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


# The trace CSV's columns are TraceRecord's fields in order; each field's
# annotation picks its (writer, reader) pair.  Floats print with 17
# significant digits, so they read back bit for bit.
TRACE_COLUMNS = tuple(f.name for f in fields(TraceRecord))
_CSV_TYPES = {
    "str": (str, str),
    "int": (str, int),
    "float": ("%.17g".__mod__, float),
    "float | None": (
        lambda value: "" if value is None else "%.17g" % value,
        lambda text: None if text == "" else float(text),
    ),
}


@dataclass
class OptimizationTrace:
    records: list[TraceRecord] = field(default_factory=list)
    # method, ground_energy, exit; analytic descent: inner_exits, one per _walk
    metadata: dict = field(default_factory=dict)
    theta: np.ndarray | None = None  # last absolute parameters, set at the end

    def append(self, record: TraceRecord) -> None:
        if self.records:
            last = self.records[-1]
            if (
                record.cumulative_cost < last.cumulative_cost
                or record.cumulative_raw_queries < last.cumulative_raw_queries
            ):
                raise ValueError("cumulative cost and query counts must not decrease")
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
    if g_norm < 0.0:
        raise ValueError(f"gradient norm must be >= 0, got {g_norm}")
    r = spec.relative_gradient_precision
    eps_b = r * g_norm / np.sqrt(nu)
    eps = r * g_norm
    return NoiseLevels(
        sigma_a=max(eps, NOISE_FLOOR),
        sigma_b=max(eps_b / np.sqrt(2.0), NOISE_FLOOR),
        sigma_c=max(eps, NOISE_FLOOR),
        sigma_d=max(0.5 * eps, NOISE_FLOOR),
    )


def feedback_check(
    e_device: float,
    e_model: float,
    noise: NoiseLevels | None = None,
    rng: np.random.Generator | None = None,
) -> float:
    """|device energy − surrogate energy| at one θ, one raw query.

    ``e_device`` is ``energy`` at θ₀+θ and ``e_model`` is ``eval_energy`` at
    θ.  The device query is perturbed with the coarse (eA-class) std when
    noise levels are given, drawn from ``rng``, which is then required;
    noiseless it measures the pure truncation defect, which vanishes for
    ν=1 where the surrogate is the full series.
    """
    if noise is not None:
        if rng is None:
            raise ValueError("noise levels need a generator for the query's draw")
        e_device += noise.sigma_a * rng.standard_normal()
    return abs(e_device - e_model)


def _noisy_gradient_sigma(noise: NoiseSpec, g_norm: float, nu: int) -> float:
    """Per-entry std r·‖g‖/√ν of a noisy device gradient, floored."""
    return max(noise.relative_gradient_precision * g_norm / np.sqrt(nu), NOISE_FLOOR)


class _Recorder:
    """One run's trace, ground energy and cost/raw-query counters.

    Every record of both optimizers goes through ``record``, which also
    decides convergence: an outer record within ``threshold`` of the ground
    energy sets the exit to "converged".
    """

    def __init__(self, method, h, threshold):
        self.ground = ground_energy(h)
        self.threshold = threshold
        self.cost = 0.0
        self.raw = 0
        self.trace = OptimizationTrace(
            metadata={"method": method, "ground_energy": self.ground, "exit": "budget"}
        )

    def record(self, phase, outer, inner, e_true, e_model=None) -> bool:
        """Append one record; True when it is an outer record that converged."""
        if e_model is not None and not np.isfinite(e_model):
            message = f"non-finite surrogate energy at outer {outer} inner {inner}"
            raise DivergenceError(message, self.trace)
        distance = abs(e_true - self.ground)
        self.trace.append(
            TraceRecord(
                phase, outer, inner, self.cost, self.raw, e_true, e_model, distance
            )
        )
        if phase == "outer" and distance < self.threshold:
            self.trace.metadata["exit"] = "converged"
            return True
        return False

    def finish(self, theta) -> OptimizationTrace:
        self.trace.theta = np.array(theta, dtype=float)
        return self.trace


def _walk(run, outer, model, current, h, metric, config, noise, levels, g_norm, key):
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
    nu = model.nu
    theta = np.zeros(nu)
    held = None
    checks = 0
    for inner in range(1, max_inner + 1):
        g_model = eval_gradient(model, theta)
        if np.abs(g_model).max() < _STATIONARY_GRADIENT:
            return theta, "stationary", inner - 1, held
        if metric is None:
            metric = qfi_exact(current, theta)
        direction = regularized_natural_direction(metric, eta, g_model)
        theta = theta - step_size * direction
        if not frozen_metric:
            metric = None
        norm = np.abs(theta).max()  # NaN and inf propagate through max
        outside = not norm < trust_radius
        if outside and not np.isfinite(norm):
            raise DivergenceError(
                f"non-finite parameters at outer {outer} inner {inner}; "
                f"step_size {step_size} diverged",
                run.trace,
            )
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
            rng = _query_rng(key + (2,), checks)
            deviation = feedback_check(e_true, e_model, levels, rng)
            run.raw += 1
            run.record("feedback", outer, inner, e_true, e_model)
            if deviation > config.feedback_tolerance:
                return theta, "feedback", inner, held
            if config.similarity_feedback:
                device_grad = g_true
                if device_grad is None:
                    device_grad = energy_gradient(current, theta, h)
                if noise.enabled:
                    sigma = _noisy_gradient_sigma(noise, g_norm, nu)
                    draws = _query_rng(key + (3,), checks).standard_normal(nu)
                    device_grad = device_grad + sigma * draws
                run.raw += 2 * nu
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
    nu = circuit.num_parameters
    run = _Recorder("analytic_descent", h, config.convergence_threshold)
    inner_exits = run.trace.metadata["inner_exits"] = []
    current = circuit
    zeros = np.zeros(nu)
    if run.record("outer", 0, 0, energy(current, zeros, h)):
        return run.finish(current.theta_ref)

    schedule = query_schedule(nu)
    for outer in range(1, config.max_outer + 1):
        oracle = CircuitOracle(current, h)
        psi, tangents, g_reference = oracle.reference()
        g_norm = float(np.linalg.norm(g_reference))
        levels = precision_policy(g_norm, nu, noise) if noise.enabled else None
        key = (noise.rng_seed, rng_seed, outer)  # a draw's key adds channel, index
        model = estimate_coefficients(oracle, schedule, levels, rng_seed=key + (0,))
        run.raw += len(schedule)
        run.cost += 2.0
        theta, reason, steps, held = _walk(
            run, outer, model, current, h, qfi_from_tangents(psi, tangents),
            config, noise, levels, g_norm, key,
        )
        inner_exits.append({"outer": outer, "reason": reason, "steps": steps})

        current = current.rebased(theta)
        # The energies held at the walk's last θ are the rebased circuit's:
        # ``rebased`` adds θ to θ₀ as ``energy`` does.
        if held is None:
            held = energy(current, zeros, h), None
        e_true, e_model = held
        if not np.isfinite(e_true):
            raise DivergenceError(f"non-finite energy after outer {outer}", run.trace)
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
    nu = circuit.num_parameters
    run = _Recorder("natural_gradient", h, config.convergence_threshold)
    theta = np.zeros(nu)
    e_true, g, metric = energy_gradient_metric(circuit, theta, h)
    if run.record("outer", 0, 0, e_true):
        return run.finish(circuit.theta_ref + theta)

    for step in range(1, config.max_outer + 1):
        if noise.enabled:
            sigma = _noisy_gradient_sigma(noise, float(np.linalg.norm(g)), nu)
            draws = _query_rng((noise.rng_seed, rng_seed, step), 1).standard_normal(nu)
            g = g + sigma * draws
        direction = regularized_natural_direction(metric, config.eta, g)
        theta = theta - config.step_size * direction
        run.cost += 1.0
        run.raw += 2 * nu
        if not np.all(np.isfinite(theta)):
            raise DivergenceError(
                f"non-finite parameters at step {step}; "
                f"step_size {config.step_size} diverged",
                run.trace,
            )
        e_true, g, metric = energy_gradient_metric(circuit, theta, h)
        if not np.isfinite(e_true):
            raise DivergenceError(f"non-finite energy at step {step}", run.trace)
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


def read_trace_csv(path) -> OptimizationTrace:
    readers = [_CSV_TYPES[f.type][1] for f in fields(TraceRecord)]
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    if not rows or tuple(rows[0]) != TRACE_COLUMNS:
        raise ValueError(f"{path}: missing or wrong trace header")
    trace = OptimizationTrace()
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(TRACE_COLUMNS):
            raise ValueError(f"{path}:{number}: expected {len(TRACE_COLUMNS)} fields")
        trace.append(TraceRecord(*(read(text) for read, text in zip(readers, row))))
    return trace
