"""Command-line front end: seeded experiments, scaling study, validation.

Experiments are described by flat INI files (sections [hamiltonian],
[ansatz], [optimizer], [noise], [run]) so that a run's sidecar metadata is
itself a config that reproduces the run bit-for-bit.  Subcommands:

  run            optimize each (method, seed), one trace CSV + sidecar per run
  scaling-study  model/gradient error vs displacement radius with slope fits
  validate       parse a Hamiltonian source and report basic facts
"""

from __future__ import annotations

import argparse
import configparser
import csv
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .ansatz import build_hardware_efficient, energy, energy_gradient
from .descent import (
    DivergenceError,
    NoiseSpec,
    OptimizerConfig,
    _refuse_non_finite,
    one_minus_f,
    run_analytic_descent,
    run_natural_gradient,
    write_trace_csv,
)
from .pauli import parse_pauli_sum, spin_ring_hamiltonian
from .simulator import GroundEnergyError, ground_energy
from .surrogate import (
    HALF_PI,
    CircuitOracle,
    _query_rng,
    estimate_coefficients,
    eval_energy,
    eval_gradient,
    query_schedule,
)

# Named experiment presets; explicit config keys always win.
_PRESETS = {
    "spin-ring": {"step_size": 0.01, "ng_step_size": 0.01, "basis_state_init": True},
    "molecular": {"step_size": 0.001, "ng_step_size": 0.1, "basis_state_init": False},
}

_METHODS = ("analytic_descent", "natural_gradient", "both")

DEFAULT_DELTAS = tuple(np.geomspace(0.01, 0.3, 7))

# The [optimizer] and [noise] keys are the fields of OptimizerConfig and
# NoiseSpec; each field's annotation picks its INI getter and writer.
_INI_TYPES = {
    "float": ("getfloat", repr),
    "int": ("getint", str),
    "bool": ("getboolean", str),
}


def _parse_list(text, convert=int, flag=None) -> tuple:
    """Comma-separated values; a part of the wrong type names ``flag``, if any."""
    try:
        return tuple(convert(part) for part in str(text).split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"{flag}: {exc}" if flag else str(exc)) from None


def _get(section, getter, key, fallback=None):
    """``section.<getter>(key)``; a value of the wrong type names its key."""
    try:
        return getattr(section, getter)(key, fallback=fallback)
    except ValueError as exc:
        raise ValueError(f"[{section.name}] {key}: {exc}") from None


def _read_fields(cls, section, **fallbacks):
    """Build ``cls`` from the INI keys named by its fields."""
    return cls(**{
        f.name: _get(
            section, _INI_TYPES[f.type][0], f.name, fallbacks.get(f.name, f.default)
        )
        for f in fields(cls)
    })


def _field_text(obj) -> dict:
    """``obj``'s fields as INI values that ``_read_fields`` reads back exactly."""
    return {f.name: _INI_TYPES[f.type][1](getattr(obj, f.name)) for f in fields(obj)}


@dataclass(frozen=True)
class ExperimentConfig:
    """Fully resolved experiment description (one Hamiltonian source)."""

    hamiltonian_file: str | None
    spin_ring_n: int | None
    spin_ring_j: float
    omega_seed: int | None
    blocks: int
    method: str
    optimizer: OptimizerConfig
    ng_step_size: float
    ng_max_steps: int
    noise: NoiseSpec
    seeds: tuple
    output_dir: str
    preset: str | None
    init_params_file: str | None
    init_perturbation: float
    basis_state_init: bool

    def __post_init__(self):
        _refuse_non_finite(self)  # spin_ring_j, ng_step_size, init_perturbation
        if (self.hamiltonian_file is None) == (self.spin_ring_n is None):
            raise ValueError(
                "config must name exactly one Hamiltonian source: "
                "a file or the spin-ring preset"
            )
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not self.seeds:
            raise ValueError("at least one seed is required")
        for seed in self.seeds:
            if seed < 0:
                raise ValueError(f"seeds must be non-negative, got {seed}")
            # Each seed names its run's trace CSV and sidecar.
            count = self.seeds.count(seed)
            if count > 1:
                times = "twice" if count == 2 else f"{count} times"
                raise ValueError(f"seeds must be distinct, got {seed} {times}")
        if self.ng_step_size <= 0.0:
            raise ValueError(f"ng_step_size must be > 0, got {self.ng_step_size}")
        if self.ng_max_steps < 1:
            raise ValueError(f"ng_max_steps must be >= 1, got {self.ng_max_steps}")
        if self.init_perturbation < 0.0:
            raise ValueError(
                f"init_perturbation must be >= 0, got {self.init_perturbation}"
            )
        if 2.0 * self.init_perturbation == np.inf:  # the uniform draw's range
            raise ValueError(
                f"init_perturbation must be <= {float(np.finfo(float).max) / 2!r} so that "
                f"the draw range 2·p is finite, got {self.init_perturbation}"
            )


def _ini_error(path, exc: configparser.Error) -> str:
    """One line naming a malformed INI's file and its first offending line."""
    if isinstance(exc, configparser.MissingSectionHeaderError):
        return f"{path}:{exc.lineno}: key before any [section]"
    if isinstance(exc, configparser.DuplicateSectionError):
        return f"{path}:{exc.lineno}: section [{exc.section}] given twice"
    if isinstance(exc, configparser.DuplicateOptionError):
        return f"{path}:{exc.lineno}: option {exc.option!r} in section [{exc.section}] given twice"
    # a ParsingError, the one other error reading a file raises
    return f"{path}:{exc.errors[0][0]}: not a key = value line"


def load_experiment_config(
    path, method=None, output_dir=None, seeds=None
) -> ExperimentConfig:
    """Parse an INI experiment file; optional arguments override its values.
    Values are literal text (no ``%`` interpolation)."""
    if not os.path.exists(path):
        raise FileNotFoundError(f"config file not found: {path}")
    parser = configparser.ConfigParser(
        inline_comment_prefixes=("#", ";"), converters={"seeds": _parse_list},
        interpolation=None,
    )
    with open(path) as handle:
        try:
            parser.read_file(handle, source=str(path))
        except configparser.Error as exc:
            raise ValueError(_ini_error(path, exc)) from None
    for name in ("hamiltonian", "ansatz", "optimizer", "noise", "run"):
        if not parser.has_section(name):
            parser.add_section(name)
    ham = parser["hamiltonian"]
    ansatz = parser["ansatz"]
    opt = parser["optimizer"]
    noise_sec = parser["noise"]
    run = parser["run"]

    preset = run.get("preset", fallback=None)
    if preset is not None:
        preset = preset.replace("_", "-")
        if preset not in _PRESETS:
            raise ValueError(
                f"unknown preset {preset!r}; known presets: {sorted(_PRESETS)}"
            )
    defaults = _PRESETS.get(preset, {})

    ham_preset = ham.get("preset", fallback=None)
    ham_file = ham.get("file", fallback=None)
    spin_ring_n = None
    if ham_preset is not None:
        if ham_preset.replace("_", "-") != "spin-ring":
            raise ValueError(f"unknown hamiltonian preset {ham_preset!r}")
        spin_ring_n = _get(ham, "getint", "N")
        if spin_ring_n is None:
            raise ValueError("spin-ring preset requires N in [hamiltonian]")

    # The INI's fallbacks where they differ from the dataclass defaults.
    optimizer = _read_fields(
        OptimizerConfig, opt,
        step_size=defaults.get("step_size", 0.01), max_outer=40, record_inner_every=0,
    )

    init_params_file = run.get("init_params", fallback=None)
    basis_default = defaults.get(
        "basis_state_init", spin_ring_n is not None and init_params_file is None
    )
    return ExperimentConfig(
        hamiltonian_file=ham_file,
        spin_ring_n=spin_ring_n,
        spin_ring_j=_get(ham, "getfloat", "J", 0.05),
        omega_seed=_get(ham, "getint", "omega_seed"),
        blocks=_get(ansatz, "getint", "blocks", 2),
        method=method or opt.get("method", fallback="both"),
        optimizer=optimizer,
        ng_step_size=_get(
            opt, "getfloat", "ng_step_size",
            defaults.get("ng_step_size", optimizer.step_size),
        ),
        ng_max_steps=_get(opt, "getint", "ng_max_steps", 20_000),
        noise=_read_fields(NoiseSpec, noise_sec),
        seeds=(
            _get(run, "getseeds", "seeds", (0,))
            if seeds is None else _parse_list(seeds, int, "--seeds")
        ),
        output_dir=output_dir or run.get("output_dir", fallback="runs"),
        preset=preset,
        init_params_file=init_params_file,
        init_perturbation=_get(run, "getfloat", "init_perturbation", 0.5),
        basis_state_init=_get(run, "getboolean", "basis_state_init", basis_default),
    )


def _hamiltonian(file, spin_ring_n, j, omega_seed):
    """A Pauli sum from a text file, or the spin ring with seeded ω fields."""
    if file is not None:
        if not os.path.exists(file):
            raise FileNotFoundError(f"Hamiltonian file not found: {file}")
        with open(file) as handle:
            return parse_pauli_sum(handle.read())
    omega = None
    if omega_seed is not None:
        if omega_seed < 0:
            raise ValueError(f"omega_seed must be non-negative, got {omega_seed}")
        omega = np.random.default_rng(omega_seed).uniform(-1.0, 1.0, spin_ring_n)
    return spin_ring_hamiltonian(spin_ring_n, j, omega)


def build_hamiltonian(config: ExperimentConfig):
    """Resolve the config's Hamiltonian source to a PauliSum."""
    return _hamiltonian(
        config.hamiltonian_file, config.spin_ring_n, config.spin_ring_j,
        config.omega_seed,
    )


def _basis_state_reference(h, circuit) -> np.ndarray:
    """π on the first-layer rotations of qubits that are down in the lowest
    diagonal basis state, so the circuit starts from that product state."""
    n = h.num_qubits
    diag = next(
        (weight.real for src, weight in h.flip_patterns if src is None),
        np.zeros(2**n),
    )
    best = int(np.argmin(diag))
    base = np.zeros(circuit.num_parameters)
    for q in range(n):
        if (best >> (n - 1 - q)) & 1:
            base[q] = np.pi
    return base


def initial_reference(config: ExperimentConfig, circuit, h) -> np.ndarray:
    """Seed-independent base point for the optimization (before perturbation)."""
    if config.init_params_file is not None:
        if not os.path.exists(config.init_params_file):
            raise FileNotFoundError(
                f"initial parameter file not found: {config.init_params_file}"
            )
        vec = np.loadtxt(config.init_params_file, ndmin=1, dtype=float)
        if vec.shape != (circuit.num_parameters,):
            raise ValueError(
                f"initial parameters must have length {circuit.num_parameters}, "
                f"got shape {vec.shape}"
            )
        if not np.isfinite(vec).all():
            raise ValueError(f"non-finite entries in {config.init_params_file}")
        return vec
    if config.basis_state_init:
        return _basis_state_reference(h, circuit)
    return np.zeros(circuit.num_parameters)


def _seed_perturbation(config: ExperimentConfig, seed: int, nu: int) -> np.ndarray:
    if config.init_perturbation == 0.0:
        return np.zeros(nu)
    rng = _query_rng((config.noise.rng_seed, seed, 0), 4)
    return rng.uniform(-config.init_perturbation, config.init_perturbation, nu)


def _sidecar_path(csv_path: str) -> str:
    return os.path.splitext(csv_path)[0] + ".cfg"


def _write_sidecar(path, config: ExperimentConfig, method, seed, trace) -> None:
    parser = configparser.ConfigParser(interpolation=None)
    ham = {}
    if config.hamiltonian_file is not None:
        ham["file"] = config.hamiltonian_file
    else:
        ham["preset"] = "spin-ring"
        ham["N"] = str(config.spin_ring_n)
        ham["J"] = repr(config.spin_ring_j)
        if config.omega_seed is not None:
            ham["omega_seed"] = str(config.omega_seed)
    parser["hamiltonian"] = ham
    parser["ansatz"] = {"blocks": str(config.blocks)}
    parser["optimizer"] = {
        "method": method,
        **_field_text(config.optimizer),
        "ng_step_size": repr(config.ng_step_size),
        "ng_max_steps": str(config.ng_max_steps),
    }
    parser["noise"] = _field_text(config.noise)
    run = {
        "seeds": str(seed),
        "output_dir": ".",
        "init_perturbation": repr(config.init_perturbation),
        "basis_state_init": str(config.basis_state_init),
    }
    if config.preset is not None:
        run["preset"] = config.preset
    if config.init_params_file is not None:
        run["init_params"] = config.init_params_file
    parser["run"] = run
    parser["trace"] = {
        "exit": str(trace.metadata.get("exit")),
        "ground_energy": repr(trace.metadata.get("ground_energy")),
        "final_distance_to_ground": repr(trace.final.distance_to_ground),
        "final_cumulative_cost": repr(trace.final.cumulative_cost),
        "final_cumulative_raw_queries": str(trace.final.cumulative_raw_queries),
    }
    with open(path, "w") as handle:
        parser.write(handle)


def cmd_run(config: ExperimentConfig) -> int:
    """Run every (method, seed) pair; write one trace CSV + sidecar each."""
    h = build_hamiltonian(config)
    circuit = build_hardware_efficient(h.num_qubits, config.blocks)
    base = initial_reference(config, circuit, h)
    circuit._gate_table  # built once here; every seeded rebase below shares it
    os.makedirs(config.output_dir, exist_ok=True)
    methods = (
        ("analytic_descent", "natural_gradient")
        if config.method == "both"
        else (config.method,)
    )
    for method in methods:
        for seed in config.seeds:
            start = base + _seed_perturbation(config, seed, circuit.num_parameters)
            seeded_circuit = circuit.rebased(start)
            if method == "analytic_descent":
                trace = run_analytic_descent(
                    seeded_circuit, h, config.optimizer, config.noise, seed
                )
            else:
                ng_config = replace(
                    config.optimizer,
                    step_size=config.ng_step_size,
                    max_outer=config.ng_max_steps,
                )
                trace = run_natural_gradient(
                    seeded_circuit, h, ng_config, config.noise, seed
                )
            csv_path = os.path.join(config.output_dir, f"{method}_seed{seed}.csv")
            write_trace_csv(trace, csv_path)
            _write_sidecar(_sidecar_path(csv_path), config, method, seed, trace)
            final = trace.final
            print(
                f"{method} seed {seed}: distance_to_ground "
                f"{final.distance_to_ground:.6g}, cost {final.cumulative_cost:g}, "
                f"raw queries {final.cumulative_raw_queries}, "
                f"exit {trace.metadata['exit']}"
            )
    return 0


@dataclass(frozen=True)
class ScalingStudyResult:
    rows: tuple  # (delta, energy_error, one_minus_f) per sample
    energy_slope: float
    energy_r2: float
    similarity_slope: float
    similarity_r2: float


def _loglog_fit(deltas, means) -> tuple[float, float]:
    x = np.log10(np.asarray(deltas, dtype=float))
    y = np.log10(np.maximum(np.asarray(means, dtype=float), 1e-18))
    slope, intercept = np.polyfit(x, y, 1)
    fitted = slope * x + intercept
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return float(slope), float(r2)


def scaling_study(
    circuit,
    h,
    deltas=DEFAULT_DELTAS,
    samples: int = 1000,
    rng_seed: int = 0,
) -> ScalingStudyResult:
    """Model error and gradient-direction error vs displacement radius.

    A noiseless natural-gradient run of 2000 steps of size 0.001 first moves
    the reference near the optimum; a noiseless surrogate is then built there
    and compared with the simulator at ``samples`` uniform draws from the
    ∞-ball of each radius.  Log-log slopes are fitted through the per-radius
    mean errors.  ``samples`` must be >= 1, ``rng_seed`` non-negative, and
    ``deltas`` must hold at least two distinct radii, each in (0, π/2),
    where the surrogate is defined.

    The preliminary run deliberately stops short of full convergence: the
    direction-error exponent is only visible while the anchor still carries a
    residual gradient that dominates the curvature term over the sampled
    radii.  At a fully converged anchor the exponent degrades towards 2.
    """
    if samples < 1:
        raise ValueError(f"samples must be >= 1, got {samples}")
    if rng_seed < 0:
        raise ValueError(f"rng_seed must be non-negative, got {rng_seed}")
    for delta in deltas:
        if not 0.0 < delta < HALF_PI:
            raise ValueError(f"deltas must be finite and in (0, π/2), got {delta}")
    if len(set(deltas)) < 2:
        raise ValueError(f"deltas must hold at least two distinct radii, got {deltas}")
    prelim_config = OptimizerConfig(
        step_size=0.001,
        max_outer=2000,
        convergence_threshold=1e-12,
        record_inner_every=0,
    )
    prelim = run_natural_gradient(circuit, h, prelim_config, NoiseSpec(enabled=False))
    theta_star = prelim.theta
    anchored = circuit.rebased(theta_star - np.asarray(circuit.theta_ref))
    model = estimate_coefficients(
        CircuitOracle(anchored, h), query_schedule(circuit.num_parameters)
    )
    rng = np.random.default_rng(rng_seed)
    rows = []
    energy_means = []
    similarity_means = []
    for delta in deltas:
        energy_errors = np.empty(samples)
        similarity_errors = np.empty(samples)
        for sample in range(samples):
            theta = rng.uniform(-delta, delta, circuit.num_parameters)
            err = abs(eval_energy(model, theta) - energy(anchored, theta, h))
            omf = max(
                one_minus_f(
                    eval_gradient(model, theta), energy_gradient(anchored, theta, h)
                ),
                0.0,
            )
            energy_errors[sample] = err
            similarity_errors[sample] = omf
            rows.append((float(delta), float(err), float(omf)))
        energy_means.append(float(np.mean(energy_errors)))
        similarity_means.append(float(np.mean(similarity_errors)))
    energy_slope, energy_r2 = _loglog_fit(deltas, energy_means)
    similarity_slope, similarity_r2 = _loglog_fit(deltas, similarity_means)
    return ScalingStudyResult(
        tuple(rows), energy_slope, energy_r2, similarity_slope, similarity_r2
    )


def cmd_scaling_study(
    config: ExperimentConfig, output_path, deltas=DEFAULT_DELTAS,
    samples: int = 1000, rng_seed: int = 0,
) -> int:
    h = build_hamiltonian(config)
    circuit = build_hardware_efficient(h.num_qubits, config.blocks)
    base = initial_reference(config, circuit, h)
    result = scaling_study(
        circuit.rebased(base), h, deltas=deltas, samples=samples, rng_seed=rng_seed
    )
    with open(output_path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(("delta", "energy_error", "one_minus_f"))
        for delta, err, omf in result.rows:
            writer.writerow(["%.17g" % delta, "%.17g" % err, "%.17g" % omf])
    print(
        f"energy_error slope: {result.energy_slope:.3f} (R^2 {result.energy_r2:.4f})"
    )
    print(
        f"one_minus_f slope: {result.similarity_slope:.3f} "
        f"(R^2 {result.similarity_r2:.4f})"
    )
    return 0


def cmd_validate(source, spin_ring_n=None, j=0.05, omega_seed=None) -> int:
    """Parse a Hamiltonian source and report qubits, terms, ground energy."""
    if (source is None) == (spin_ring_n is None):
        raise ValueError(
            "validate needs exactly one source: a file path or --spin-ring N"
        )
    h = _hamiltonian(source, spin_ring_n, j, omega_seed)
    print(f"qubits: {h.num_qubits}")
    print(f"terms: {len(h.terms)}")
    print("hermitian: yes (real Pauli coefficients)")
    if h.num_qubits <= 12:
        print(f"ground_energy: {ground_energy(h):.12g}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="analytic-descent",
        description=(
            "Surrogate-based variational optimization benchmark: estimate a "
            "trigonometric model of the energy landscape, descend it with "
            "natural-gradient steps, and compare against the conventional "
            "natural-gradient baseline."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run seeded optimization experiments")
    run_p.add_argument("--config", required=True, help="experiment INI file")
    run_p.add_argument("--method", choices=_METHODS, default=None)
    run_p.add_argument("--output-dir", default=None)
    run_p.add_argument("--seeds", default=None, help="comma-separated integers")

    study_p = sub.add_parser(
        "scaling-study", help="model error vs displacement radius"
    )
    study_p.add_argument("--config", required=True, help="experiment INI file")
    study_p.add_argument("--output", required=True, help="output CSV path")
    study_p.add_argument("--samples", type=int, default=1000)
    study_p.add_argument(
        "--deltas", default=None, help="comma-separated radii (default 0.01..0.3)"
    )
    study_p.add_argument("--rng-seed", type=int, default=0)

    val_p = sub.add_parser("validate", help="inspect a Hamiltonian source")
    val_p.add_argument("source", nargs="?", default=None, help="Hamiltonian text file")
    val_p.add_argument("--spin-ring", type=int, default=None, metavar="N")
    val_p.add_argument("--J", type=float, default=0.05)
    val_p.add_argument("--omega-seed", type=int, default=None)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "run":
            config = load_experiment_config(
                args.config,
                method=args.method,
                output_dir=args.output_dir,
                seeds=args.seeds,
            )
            return cmd_run(config)
        if args.command == "scaling-study":
            config = load_experiment_config(args.config)
            deltas = DEFAULT_DELTAS
            if args.deltas is not None:
                deltas = _parse_list(args.deltas, float, "--deltas")
            return cmd_scaling_study(
                config, args.output, deltas=deltas,
                samples=args.samples, rng_seed=args.rng_seed,
            )
        return cmd_validate(
            args.source, spin_ring_n=args.spin_ring, j=args.J,
            omega_seed=args.omega_seed,
        )
    except (ValueError, OSError, DivergenceError, GroundEnergyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
