"""The benchmark's four workloads and the package boundaries a traced run wraps.

Each workload builds its instance from a workload seed (untimed), runs one
timed operation that ends with the user-visible result, and checks that
result.  Checks return failure messages instead of raising, so the runner
can count them against the operations attempted.

The names the timed operations call (`run_analytic_descent`,
`estimate_coefficients`, `cli_main`, ...) are looked up in this module's
namespace at call time, so a traced run can wrap them like any other
module boundary.
"""

from __future__ import annotations

import configparser
import contextlib
import io
import os
import sys
import tempfile
from dataclasses import dataclass, field, replace

import numpy as np

import analytic_descent.ansatz as ansatz_module
import analytic_descent.cli as cli_module
import analytic_descent.descent as descent_module
import analytic_descent.metric as metric_module
import analytic_descent.surrogate as surrogate_module
from analytic_descent.ansatz import build_hardware_efficient, energy_gradient
from analytic_descent.cli import _basis_state_reference
from analytic_descent.cli import main as cli_main
from analytic_descent.descent import (
    NoiseSpec,
    OptimizerConfig,
    precision_policy,
    read_trace_csv,
    run_analytic_descent,
    run_natural_gradient,
    write_trace_csv,
)
from analytic_descent.metric import MetricTensor
from analytic_descent.pauli import spin_ring_hamiltonian
from analytic_descent.surrogate import (
    CircuitOracle,
    estimate_coefficients,
    model_to_json,
    query_schedule,
)

# The criterion-10 instance family: Heisenberg ring, J = 0.05, longitudinal
# fields from seed 7, noise seed 0, relative gradient precision 0.1.
RING_J = 0.05
OMEGA_SEED = 7
NOISE = NoiseSpec(enabled=True, relative_gradient_precision=0.1, rng_seed=0)
THRESHOLD = 1e-3

# Inner steps per outer step, for both analytic-descent workloads.  The
# package default of 10,000 puts 18 s of a ring6-ad run, and 7 s of a
# ring2-cli run, into the one or two outer steps that end on `max_inner`.
# A thousand leaves every cost and raw-query figure at workload seeds 1 and 2
# unchanged, still ends outer steps on `max_inner`, and makes one run short
# enough that a timed run repeats it several times and reports a median.
MAX_INNER = 1_000

# |eB/2 - g| has std sigma_b/sqrt(2) per entry; six of those bound a false
# alarm below 1e-7 over all 70 entries of ring10-estimate.
GRADIENT_SIGMAS = 6.0


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def schedule_size(nu: int) -> int:
    return 2 * nu * nu + nu + 1


def ring_instance(n: int, blocks: int):
    omega = np.random.default_rng(OMEGA_SEED).uniform(-1.0, 1.0, n)
    return spin_ring_hamiltonian(n, RING_J, omega), build_hardware_efficient(n, blocks)


def seeded_start(h, circuit, seed: int):
    """Basis-state reference plus the seeded uniform(-0.5, 0.5) perturbation."""
    base = _basis_state_reference(h, circuit)
    rng = np.random.default_rng([NOISE.rng_seed, int(seed), 0, 4])
    return circuit.rebased(base + rng.uniform(-0.5, 0.5, circuit.num_parameters))


def trace_csv_bytes(trace, path) -> bytes:
    write_trace_csv(trace, path)
    with open(path, "rb") as handle:
        return handle.read()


@dataclass
class Result:
    """What one timed operation produced, reduced to what the checks need."""

    cost_units: float
    raw_queries: int
    artifact: bytes  # compared byte for byte between repeats
    failures: list = field(default_factory=list)


@dataclass
class Instance:
    seed: int
    workdir: str
    h: object
    circuit: object  # the seeded start circuit
    config: object = None  # OptimizerConfig, or the experiment INI path (ring2-cli)
    max_workers: int | None = None

    @property
    def nu(self) -> int:
        return self.circuit.num_parameters

    def fresh_dir(self, tag: str) -> str:
        return tempfile.mkdtemp(prefix=tag, dir=self.workdir)


def _descent_checks(trace, per_step: int) -> list[str]:
    """Converged to THRESHOLD; cost and raw queries follow the paper's accounting."""
    method = trace.metadata["method"]
    failures = []
    final = trace.final
    if not final.distance_to_ground < THRESHOLD:
        failures.append(
            f"{method} ended {final.distance_to_ground:.3g} from the ground energy "
            f"(exit {trace.metadata.get('exit')}), not within {THRESHOLD:g}"
        )
    outer = [r for r in trace.records if r.phase == "outer"]
    steps = [b.cumulative_raw_queries - a.cumulative_raw_queries for a, b in zip(outer, outer[1:])]
    if any(step != per_step for step in steps):
        failures.append(f"{method}: raw queries per step {sorted(set(steps))}, expected {per_step}")
    units = 2.0 if method == "analytic_descent" else 1.0
    if final.cumulative_cost != units * final.outer:
        failures.append(
            f"{method}: cost {final.cumulative_cost:g} is not {units:g} x {final.outer} steps"
        )
    return failures


def estimate_model(circuit, h, levels, key, max_workers):
    """One estimation phase on ``circuit``'s full schedule."""
    return surrogate_module.estimate_coefficients(
        CircuitOracle(circuit, h), query_schedule(circuit.num_parameters), levels,
        rng_seed=key, max_workers=max_workers,
    )


class Workload:
    name = ""
    writes_trace = False  # the timed operation writes the program's trace CSV

    def rerun_checks(self, inst, result) -> list[tuple[str, list]]:
        """Extra operations that check ``result``: (label, failures) each."""
        return []

    def first_estimate(self, inst):
        """The circuit, noise levels and noise key of outer step 1."""
        g = ansatz_module.energy_gradient(inst.circuit, np.zeros(inst.nu), inst.h)
        levels = precision_policy(float(np.linalg.norm(g)), inst.nu, NOISE)
        return inst.circuit, levels, (NOISE.rng_seed, inst.seed, 1, 0)


class Ring6AD(Workload):
    name = "ring6-ad"
    config = OptimizerConfig(
        step_size=0.01, max_outer=25, max_inner=MAX_INNER, trust_radius=0.2,
        convergence_threshold=THRESHOLD, frozen_metric=True, record_inner_every=0,
    )

    def build(self, seed, workdir):
        h, circuit = ring_instance(6, 2)
        return Instance(seed, workdir, h, seeded_start(h, circuit, seed), self.config)

    def run(self, inst):
        return run_analytic_descent(inst.circuit, inst.h, inst.config, NOISE, inst.seed)

    def queries_per_step(self, nu: int) -> int:
        return schedule_size(nu)

    def result(self, inst, trace):
        final = trace.final
        artifact = trace_csv_bytes(trace, os.path.join(inst.fresh_dir("trace"), "trace.csv"))
        failures = _descent_checks(trace, self.queries_per_step(inst.nu))
        return Result(final.cumulative_cost, final.cumulative_raw_queries, artifact, failures)


class Ring6NG(Ring6AD):
    name = "ring6-ng"
    config = OptimizerConfig(
        step_size=0.01, max_outer=30_000, convergence_threshold=THRESHOLD,
        record_inner_every=0,
    )

    def run(self, inst):
        return run_natural_gradient(inst.circuit, inst.h, inst.config, NOISE, inst.seed)

    def queries_per_step(self, nu: int) -> int:
        return 2 * nu


class Ring10Estimate(Workload):
    """Outer step 1's estimation phase at N=10, where the oracle goes pointwise."""

    name = "ring10-estimate"

    def build(self, seed, workdir):
        h, circuit = ring_instance(10, 2)
        return Instance(seed, workdir, h, seeded_start(h, circuit, seed))

    def run(self, inst):
        nu = inst.nu
        g = energy_gradient(inst.circuit, np.zeros(nu), inst.h)
        levels = precision_policy(float(np.linalg.norm(g)), nu, NOISE)
        model = estimate_coefficients(
            CircuitOracle(inst.circuit, inst.h),
            query_schedule(nu),
            levels,
            rng_seed=(NOISE.rng_seed, inst.seed, 1, 0),
            max_workers=inst.max_workers,
        )
        return g, levels, model

    def result(self, inst, output):
        g, levels, model = output
        failures = []
        deviation = float(np.max(np.abs(0.5 * model.eB - g)))
        bound = GRADIENT_SIGMAS * levels.sigma_b / np.sqrt(2.0) + 1e-9
        if not deviation <= bound:
            failures.append(
                f"max |eB/2 - energy_gradient| = {deviation:.3g} exceeds {bound:.3g} "
                f"({GRADIENT_SIGMAS:g} sigma from sigma_b = {levels.sigma_b:.3g})"
            )
        if not np.allclose(model.varB, 2.0 * levels.sigma_b**2, rtol=1e-12, atol=0.0):
            failures.append("varB does not equal 2 sigma_b^2")
        return Result(2.0, schedule_size(inst.nu), model_to_json(model).encode(), failures)

    def threaded(self, inst):
        return replace(inst, max_workers=nproc())


class Ring2CLI(Workload):
    """Criterion 11's experiment through `analytic-descent run`.

    The timed run dispatches queries serially: with `max_workers = nproc`
    on two shared cores, the time the threads wait for each other swings
    the wall time from run to run.  A threaded rerun checks that dispatch.
    """

    name = "ring2-cli"
    writes_trace = True
    max_outer = 40

    def config_text(self, seed, max_workers):
        workers = "" if max_workers is None else f"max_workers = {max_workers}\n"
        return (
            "[hamiltonian]\npreset = spin-ring\nN = 2\nomega_seed = 1\n\n"
            "[ansatz]\nblocks = 1\n\n"
            "[optimizer]\nmethod = analytic_descent\nstep_size = 0.01\n"
            f"max_outer = {self.max_outer}\nmax_inner = {MAX_INNER}\n"
            f"record_inner_every = 3\n{workers}\n"
            "[noise]\nenabled = true\nrelative_gradient_precision = 0.1\nrng_seed = 0\n\n"
            f"[run]\nseeds = {int(seed)}\ninit_perturbation = 0.3\n"
        )

    def build(self, seed, workdir, max_workers=None):
        path = os.path.join(workdir, f"ring2_{max_workers or 'serial'}.ini")
        with open(path, "w") as handle:
            handle.write(self.config_text(seed, max_workers))
        loaded = cli_module.load_experiment_config(path)
        h = cli_module.build_hamiltonian(loaded)
        circuit = build_hardware_efficient(h.num_qubits, loaded.blocks)
        base = cli_module.initial_reference(loaded, circuit, h)
        start = circuit.rebased(
            base + cli_module._seed_perturbation(loaded, seed, circuit.num_parameters)
        )
        return Instance(seed, workdir, h, start, path, max_workers)

    def rerun_checks(self, inst, result):
        threaded = self.build(inst.seed, inst.workdir, max_workers=nproc())
        rerun = self.result(threaded, self.run(threaded))
        same = rerun.artifact == result.artifact
        return [("threaded rerun", rerun.failures + ([] if same else ["trace CSV differs from the threaded rerun"]))]

    def run(self, inst):
        out_dir = inst.fresh_dir("cli")
        with contextlib.redirect_stdout(io.StringIO()):
            status = cli_main(["run", "--config", inst.config, "--output-dir", out_dir])
        return status, out_dir

    def result(self, inst, output):
        status, out_dir = output
        stem = os.path.join(out_dir, f"analytic_descent_seed{inst.seed}")
        if status != 0:
            return Result(0.0, 0, b"", [f"analytic-descent run exited with {status}"])
        with open(stem + ".csv", "rb") as handle:
            artifact = handle.read()
        trace = read_trace_csv(stem + ".csv")
        sidecar = configparser.ConfigParser()
        sidecar.read(stem + ".cfg")
        final = trace.final
        failures = []
        if float(sidecar["trace"]["final_cumulative_cost"]) != final.cumulative_cost or int(
            sidecar["trace"]["final_cumulative_raw_queries"]
        ) != final.cumulative_raw_queries:
            failures.append("sidecar cost/raw queries disagree with the trace CSV")
        outer = [r for r in trace.records if r.phase == "outer"]
        steps = [b.cumulative_raw_queries - a.cumulative_raw_queries for a, b in zip(outer, outer[1:])]
        if any(step != schedule_size(inst.nu) for step in steps):
            failures.append(f"raw queries per outer step {sorted(set(steps))}")
        if final.cumulative_cost != 2.0 * final.outer:
            failures.append(f"cost {final.cumulative_cost:g} is not 2 x {final.outer} outer steps")
        return Result(final.cumulative_cost, final.cumulative_raw_queries, artifact, failures)


WORKLOADS = {w.name: w for w in (Ring6AD(), Ring6NG(), Ring10Estimate(), Ring2CLI())}


# -- traced boundaries ---------------------------------------------------------

def _energy_work(circuit, theta, h, *rest):
    gates = circuit.num_parameters + len(h.terms)
    return gates, gates * 2**circuit.num_qubits


def _gradient_work(circuit, theta, h, *rest):
    # forward sweep, H|psi>, then per gate one Pauli and two inverse rotations
    gates = 4 * circuit.num_parameters + len(h.terms)
    return gates, gates * 2**circuit.num_qubits


def _prepare_work(circuit, theta, *rest):
    return circuit.num_parameters, circuit.num_parameters * 2**circuit.num_qubits


def _sweep_work(circuit, theta, *rest):
    # gate k is pushed through the k+1 live rows of the tangent block
    nu = circuit.num_parameters
    gates = nu * (nu + 1) // 2
    return gates, gates * 2**circuit.num_qubits


def boundaries():
    """(owner, attribute, span name, computed work, capture result) per boundary.

    Span names are ``<layer>.<operation>`` with the layer of the module that
    does the work.  The traced names are those one module imports from
    another (plus the oracle's methods, the per-query noise generator and the
    metric's PSD check, which the per-layer counters need).
    """
    d, m, s, c = descent_module, metric_module, surrogate_module, cli_module
    bench = sys.modules[__name__]
    return [
        # benchmark -> package
        (bench, "run_analytic_descent", "descent.run", None, True),
        (bench, "run_natural_gradient", "descent.run", None, True),
        (bench, "energy_gradient", "ansatz.energy_gradient", _gradient_work, False),
        (bench, "precision_policy", "descent.precision_policy", None, False),
        (bench, "estimate_coefficients", "surrogate.estimate", None, False),
        (bench, "cli_main", "cli.main", None, False),
        # cli -> descent, and the sidecar writer inside cli
        (c, "run_analytic_descent", "descent.run", None, True),
        (c, "run_natural_gradient", "descent.run", None, True),
        (c, "write_trace_csv", "descent.trace_csv", None, False),
        (c, "_write_sidecar", "cli.sidecar", None, False),
        # descent -> ansatz, metric, simulator, surrogate
        (d, "energy", "ansatz.energy", _energy_work, False),
        (d, "energy_gradient", "ansatz.energy_gradient", _gradient_work, False),
        (d, "qfi_exact", "metric.qfi_exact", None, False),
        (d, "regularized_natural_direction", "metric.direction", None, False),
        (d, "ground_energy", "simulator.ground_energy", None, False),
        (d, "estimate_coefficients", "surrogate.estimate", None, False),
        (d, "eval_energy", "surrogate.eval_energy", None, False),
        (d, "eval_gradient", "surrogate.eval_gradient", None, False),
        (d, "query_schedule", "surrogate.query_schedule", None, False),
        # metric -> simulator, ansatz, scipy
        (m, "_state_and_tangents", "simulator.tangent_sweep", _sweep_work, False),
        (m, "prepare_state", "ansatz.prepare_state", _prepare_work, False),
        (m, "cho_factor", "metric.factorization", None, False),
        (MetricTensor, "__post_init__", "metric.psd_check", None, False),
        # surrogate -> ansatz (pointwise oracle), oracle internals, noise
        (s, "energy", "ansatz.energy", _energy_work, False),
        (CircuitOracle, "schedule_energies", "surrogate.oracle", None, False),
        (CircuitOracle, "_build_cache", "surrogate.oracle.cache_build", None, False),
        (s, "_query_rng", "surrogate.noise", None, False),
    ]
