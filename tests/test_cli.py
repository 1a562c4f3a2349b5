"""Command-line front end: config parsing, Hamiltonian resolution, seeded
runs with sidecar reproduction, the scaling study, and validation."""

from dataclasses import fields

import numpy as np
import pytest

from analytic_descent import (
    build_hardware_efficient,
    energy,
    format_pauli_sum,
    parse_pauli_sum,
    read_trace_csv,
    spin_ring_hamiltonian,
)
from analytic_descent import ansatz as ansatz_module
from analytic_descent import pauli, simulator
from analytic_descent.cli import (
    DEFAULT_DELTAS,
    ExperimentConfig,
    _basis_state_reference,
    build_hamiltonian,
    initial_reference,
    load_experiment_config,
    main,
    _seed_perturbation,
)
from analytic_descent.descent import TRACE_COLUMNS, NoiseSpec, OptimizerConfig


def _write(path, text):
    path.write_text(text)
    return str(path)


SPIN_RING_INI = """
[hamiltonian]
preset = spin_ring
N = 2
omega_seed = 1

[ansatz]
blocks = 1

[optimizer]
method = both
step_size = 0.01
max_outer = 40

[noise]
enabled = true
relative_gradient_precision = 0.1
rng_seed = 0

[run]
seeds = 1
init_perturbation = 0.3
"""


# --------------------------------------------------------- config loading


def test_spin_ring_preset_defaults(tmp_path):
    path = _write(tmp_path / "exp.ini", "[hamiltonian]\npreset = spin-ring\nN = 4\n\n[run]\npreset = spin_ring\n")
    config = load_experiment_config(path)
    assert config.spin_ring_n == 4
    assert config.hamiltonian_file is None
    assert config.optimizer.step_size == 0.01
    assert config.ng_step_size == 0.01
    assert config.basis_state_init is True
    assert config.preset == "spin-ring"  # underscore form normalized
    assert config.seeds == (0,)
    assert config.optimizer.max_outer == 40
    assert config.ng_max_steps == 20_000
    assert config.blocks == 2
    assert config.init_perturbation == 0.5
    assert config.output_dir == "runs"


def test_molecular_preset_defaults(tmp_path):
    ham = _write(tmp_path / "h.txt", "1 Z\n")
    path = _write(
        tmp_path / "exp.ini",
        f"[hamiltonian]\nfile = {ham}\n\n[run]\npreset = molecular\n",
    )
    config = load_experiment_config(path)
    assert config.optimizer.step_size == 0.001
    assert config.ng_step_size == 0.1
    assert config.basis_state_init is False


def test_explicit_keys_beat_preset_and_comments_are_stripped(tmp_path):
    path = _write(
        tmp_path / "exp.ini",
        "[hamiltonian]\npreset = spin-ring\nN = 3  # three sites\n\n"
        "[optimizer]\nstep_size = 0.07 ; override\n\n[run]\npreset = spin-ring\n",
    )
    config = load_experiment_config(path)
    assert config.spin_ring_n == 3
    assert config.optimizer.step_size == 0.07
    assert config.ng_step_size == 0.01  # still the preset value


def test_argument_overrides(tmp_path):
    path = _write(tmp_path / "exp.ini", "[hamiltonian]\npreset = spin-ring\nN = 2\n")
    config = load_experiment_config(
        path, method="natural_gradient", output_dir="elsewhere", seeds="3,5"
    )
    assert config.method == "natural_gradient"
    assert config.output_dir == "elsewhere"
    assert config.seeds == (3, 5)


def test_config_error_cases(tmp_path):
    with pytest.raises(FileNotFoundError, match="config file not found"):
        load_experiment_config(str(tmp_path / "missing.ini"))
    bad_preset = _write(
        tmp_path / "a.ini",
        "[hamiltonian]\npreset = spin-ring\nN = 2\n\n[run]\npreset = nope\n",
    )
    with pytest.raises(ValueError, match="unknown preset 'nope'"):
        load_experiment_config(bad_preset)
    bad_ham = _write(tmp_path / "b.ini", "[hamiltonian]\npreset = chain\nN = 2\n")
    with pytest.raises(ValueError, match="unknown hamiltonian preset"):
        load_experiment_config(bad_ham)
    no_n = _write(tmp_path / "c.ini", "[hamiltonian]\npreset = spin-ring\n")
    with pytest.raises(ValueError, match="requires N"):
        load_experiment_config(no_n)
    none = _write(tmp_path / "d.ini", "[run]\nseeds = 1\n")
    with pytest.raises(ValueError, match="exactly one Hamiltonian source"):
        load_experiment_config(none)
    both = _write(
        tmp_path / "e.ini",
        "[hamiltonian]\npreset = spin-ring\nN = 2\nfile = x.txt\n",
    )
    with pytest.raises(ValueError, match="exactly one Hamiltonian source"):
        load_experiment_config(both)
    bad_method = _write(tmp_path / "f.ini", "[hamiltonian]\npreset = spin-ring\nN = 2\n")
    with pytest.raises(ValueError, match="method must be one of"):
        load_experiment_config(bad_method, method="bogus")


# --------------------------------------------------- Hamiltonian sources


def test_build_hamiltonian_from_file(tmp_path):
    ham = _write(tmp_path / "h.txt", "# qubits: 2\n0.5 ZZ\n0.25 XI\n")
    config = load_experiment_config(
        _write(tmp_path / "exp.ini", f"[hamiltonian]\nfile = {ham}\n")
    )
    h = build_hamiltonian(config)
    assert h.num_qubits == 2
    assert len(h.terms) == 2


def test_build_hamiltonian_missing_file(tmp_path):
    config = load_experiment_config(
        _write(tmp_path / "exp.ini", "[hamiltonian]\nfile = /nowhere/h.txt\n")
    )
    with pytest.raises(FileNotFoundError, match="/nowhere/h.txt"):
        build_hamiltonian(config)


def test_build_hamiltonian_spin_ring_with_fields(tmp_path):
    config = load_experiment_config(
        _write(
            tmp_path / "exp.ini",
            "[hamiltonian]\npreset = spin-ring\nN = 4\nJ = 0.1\nomega_seed = 7\n",
        )
    )
    h = build_hamiltonian(config)
    omega = np.random.default_rng(7).uniform(-1.0, 1.0, 4)
    expected = spin_ring_hamiltonian(4, 0.1, omega)
    assert format_pauli_sum(h) == format_pauli_sum(expected)


# ------------------------------------------------------- starting points


def test_basis_state_reference_reaches_lowest_diagonal_energy(tmp_path):
    ham = _write(tmp_path / "h.txt", "# qubits: 2\n0.7 ZI\n-0.3 IZ\n")
    config = load_experiment_config(
        _write(
            tmp_path / "exp.ini",
            f"[hamiltonian]\nfile = {ham}\n\n[run]\nbasis_state_init = true\n",
        )
    )
    h = build_hamiltonian(config)
    circuit = build_hardware_efficient(2, config.blocks)
    base = initial_reference(config, circuit, h)
    # lowest diagonal value of 0.7 z0 - 0.3 z1 is -1.0 (z0 down, z1 up)
    assert abs(energy(circuit.rebased(base), np.zeros(circuit.num_parameters), h) + 1.0) < 1e-12


def test_basis_state_reference_is_zero_without_a_diagonal_term():
    h = parse_pauli_sum("-0.4 YY\n0.1 ZX\n")  # off-diagonal only
    circuit = build_hardware_efficient(2, 1)
    assert np.array_equal(_basis_state_reference(h, circuit), np.zeros(circuit.num_parameters))


def test_initial_reference_from_parameter_file(tmp_path):
    circuit = build_hardware_efficient(2, 1)
    vec = np.linspace(-0.2, 0.2, circuit.num_parameters)
    params = tmp_path / "init.txt"
    np.savetxt(params, vec)
    config = load_experiment_config(
        _write(
            tmp_path / "exp.ini",
            f"[hamiltonian]\npreset = spin-ring\nN = 2\n\n[run]\ninit_params = {params}\n",
        )
    )
    h = build_hamiltonian(config)
    got = initial_reference(config, circuit, h)
    assert np.allclose(got, vec, atol=1e-15)
    short = tmp_path / "short.txt"
    np.savetxt(short, vec[:3])
    with pytest.raises(ValueError, match="length 8"):
        initial_reference(
            ExperimentConfig(
                hamiltonian_file=None, spin_ring_n=2, spin_ring_j=0.05,
                omega_seed=None, blocks=1, method="both",
                optimizer=config.optimizer, ng_step_size=0.01, ng_max_steps=100,
                noise=config.noise, seeds=(0,), output_dir="runs", preset=None,
                init_params_file=str(short), init_perturbation=0.5,
                basis_state_init=False,
            ),
            circuit, h,
        )


def test_seed_perturbation_is_seeded_and_bounded(tmp_path):
    config = load_experiment_config(
        _write(
            tmp_path / "exp.ini",
            "[hamiltonian]\npreset = spin-ring\nN = 2\n\n[run]\ninit_perturbation = 0.3\n",
        )
    )
    first = _seed_perturbation(config, 4, 8)
    second = _seed_perturbation(config, 4, 8)
    other = _seed_perturbation(config, 5, 8)
    assert np.array_equal(first, second)
    assert not np.array_equal(first, other)
    assert np.max(np.abs(first)) < 0.3
    zero = ExperimentConfig(
        hamiltonian_file=None, spin_ring_n=2, spin_ring_j=0.05, omega_seed=None,
        blocks=1, method="both", optimizer=config.optimizer, ng_step_size=0.01,
        ng_max_steps=100, noise=config.noise, seeds=(0,), output_dir="runs",
        preset=None, init_params_file=None, init_perturbation=0.0,
        basis_state_init=False,
    )
    assert np.array_equal(_seed_perturbation(zero, 4, 8), np.zeros(8))


# ------------------------------------------------------------- validate


def test_validate_hamiltonian_file(tmp_path, capsys):
    path = _write(tmp_path / "h.txt", "1 Z\n")
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "qubits: 1" in out
    assert "terms: 1" in out
    assert "hermitian: yes" in out
    assert "ground_energy: -1" in out


def test_validate_spin_ring(capsys):
    assert main(["validate", "--spin-ring", "3"]) == 0
    out = capsys.readouterr().out
    assert "qubits: 3" in out
    assert "terms: 9" in out
    assert "ground_energy: -0.15" in out


def test_validate_error_paths(tmp_path, capsys):
    bad = _write(tmp_path / "bad.txt", "1 Z\nnot a line\n")
    assert main(["validate", bad]) == 1
    assert "error:" in capsys.readouterr().err
    assert main(["validate"]) == 1
    assert "exactly one source" in capsys.readouterr().err
    path = _write(tmp_path / "h.txt", "1 Z\n")
    assert main(["validate", path, "--spin-ring", "2"]) == 1
    assert "exactly one source" in capsys.readouterr().err
    assert main(["validate", str(tmp_path / "missing.txt")]) == 1
    assert "not found" in capsys.readouterr().err


def test_validate_a_header_only_file(tmp_path, capsys):
    path = _write(tmp_path / "h.txt", "# qubits: 3\n")
    assert main(["validate", path]) == 0
    out = capsys.readouterr().out
    assert "qubits: 3" in out and "terms: 0" in out
    assert "ground_energy: 0\n" in out


@pytest.mark.parametrize(
    "text, message",
    [
        ("# qubits: 0\n", "line 1: num_qubits must be positive, got 0"),
        ("# qubits: 2\n1 XXX\n", "line 1: header declares 2 qubits but terms have length 3"),
        ("1 XX\nnan ZZ\n", "line 2: non-finite coefficient nan for ZZ"),
    ],
    ids=["zero-qubits", "header-mismatch", "nan"],
)
def test_validate_names_the_line_of_a_refused_file(tmp_path, capsys, text, message):
    path = _write(tmp_path / "h.txt", text)
    assert main(["validate", path]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


def _spy_on_kernels(monkeypatch):
    """The words whose 2^N kernels are built from here on."""
    kernel = pauli._pauli_kernel
    built = []
    monkeypatch.setattr(
        pauli, "_pauli_kernel", lambda letters: built.append(letters) or kernel(letters)
    )
    return built


def test_a_register_over_the_cap_is_refused_before_any_kernel(tmp_path, capfd, monkeypatch):
    """A spin-ring run at N = 21 stops at H's first 2^N arrays: exit 1, one
    ``error:`` line, and no Pauli kernel built."""
    built = _spy_on_kernels(monkeypatch)
    config_path = _write(
        tmp_path / "exp.ini",
        "[hamiltonian]\npreset = spin-ring\nN = 21\n\n[run]\npreset = spin-ring\n",
    )
    status = main(["run", "--config", config_path, "--output-dir", str(tmp_path / "out")])
    captured = capfd.readouterr()
    assert status == 1
    assert (captured.out, captured.err) == ("", "error: qubit count 21 exceeds cap 20\n")
    assert built == []


def test_a_register_over_the_cap_builds_no_gate_table(tmp_path, capfd, monkeypatch):
    """Without the basis-state start no array of H is built before the runs,
    so the start circuit's gate table refuses N = 21 itself: exit 1, one
    ``error:`` line, no kernel built and no output directory made."""
    built = []

    def kernel(letters):
        built.append(letters)
        raise AssertionError("a gate-table kernel was built")

    monkeypatch.setattr(simulator, "_pauli_kernel", kernel)
    config_path = _write(
        tmp_path / "exp.ini",
        "[hamiltonian]\npreset = spin-ring\nN = 21\n\n"
        "[run]\npreset = spin-ring\nbasis_state_init = false\n",
    )
    out_dir = tmp_path / "out"
    status = main(["run", "--config", config_path, "--output-dir", str(out_dir)])
    captured = capfd.readouterr()
    assert status == 1
    assert (captured.out, captured.err) == ("", "error: qubit count 21 exceeds cap 20\n")
    assert built == [] and not out_dir.exists()


def test_validate_reports_a_large_ring_without_building_it(capsys, monkeypatch):
    built = _spy_on_kernels(monkeypatch)
    assert main(["validate", "--spin-ring", "25"]) == 0
    out = capsys.readouterr().out
    assert "qubits: 25" in out
    assert "terms: 75" in out
    assert "ground_energy" not in out
    assert built == []


@pytest.mark.parametrize("command", ["validate", "run"])
def test_an_eigensolver_failure_is_one_error_line(tmp_path, capfd, monkeypatch, command):
    """ARPACK's non-convergence at N = 7 ends the command with exit 1 and
    one ``error:`` line that names the eigensolver, not a traceback."""
    import scipy.sparse.linalg

    def no_convergence(*args, **kwargs):
        raise scipy.sparse.linalg.ArpackNoConvergence("no convergence", np.empty(0), None)

    monkeypatch.setattr(scipy.sparse.linalg, "eigsh", no_convergence)
    if command == "validate":
        argv = ["validate", "--spin-ring", "7"]
    else:
        config_path = _write(
            tmp_path / "exp.ini", SPIN_RING_INI.replace("N = 2", "N = 7")
        )
        argv = ["run", "--config", config_path, "--output-dir", str(tmp_path / "out")]
    status = main(argv)
    captured = capfd.readouterr()
    assert status == 1
    errors = [line for line in captured.err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1 and "eigensolver did not converge" in errors[0]
    assert captured.err == errors[0] + "\n"
    assert "Traceback" not in captured.out + captured.err


# ------------------------------------------------------------------ run


def test_run_writes_traces_and_sidecars(tmp_path, capsys):
    config_path = _write(tmp_path / "exp.ini", SPIN_RING_INI)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config_path, "--output-dir", str(out_dir)]) == 0
    printed = capsys.readouterr().out
    assert "analytic_descent seed 1" in printed
    assert "natural_gradient seed 1" in printed
    for method in ("analytic_descent", "natural_gradient"):
        csv_path = out_dir / f"{method}_seed1.csv"
        assert csv_path.exists()
        assert (out_dir / f"{method}_seed1.cfg").exists()
        trace = read_trace_csv(csv_path)
        assert trace.final.distance_to_ground < 1e-3
    header = (out_dir / "analytic_descent_seed1.csv").read_text().splitlines()[0]
    assert header == ",".join(TRACE_COLUMNS)


def test_sidecar_reproduces_the_run_bit_for_bit(tmp_path):
    config_path = _write(tmp_path / "exp.ini", SPIN_RING_INI)
    first = tmp_path / "first"
    again = tmp_path / "again"
    assert main(["run", "--config", config_path, "--output-dir", str(first)]) == 0
    sidecar = first / "analytic_descent_seed1.cfg"
    assert main(["run", "--config", str(sidecar), "--output-dir", str(again)]) == 0
    original = (first / "analytic_descent_seed1.csv").read_bytes()
    reproduced = (again / "analytic_descent_seed1.csv").read_bytes()
    assert reproduced == original
    # the sidecar pins the method, so only that trace is produced
    assert sorted(p.name for p in again.iterdir()) == [
        "analytic_descent_seed1.cfg",
        "analytic_descent_seed1.csv",
    ]


def test_sidecars_of_a_file_preset_and_parameter_run_reproduce_it(tmp_path):
    """A Hamiltonian file, an initial-parameter file and a [run] preset are
    written to each method's sidecar, and rerunning from it gives the same
    trace CSV and sidecar bytes."""
    ham = _write(tmp_path / "h.txt", "# qubits: 2\n0.5 ZZ\n0.25 XI\n-0.3 IZ\n")
    params = tmp_path / "init.txt"
    np.savetxt(params, np.linspace(-0.4, 0.4, 8))
    config_path = _write(
        tmp_path / "exp.ini",
        f"[hamiltonian]\nfile = {ham}\n\n[ansatz]\nblocks = 1\n\n"
        "[optimizer]\nmethod = both\nmax_outer = 3\nmax_inner = 30\n"
        "record_inner_every = 7\nng_max_steps = 12\n\n"
        "[noise]\nenabled = true\nrng_seed = 3\n\n"
        f"[run]\npreset = molecular\ninit_params = {params}\nseeds = 1\n",
    )
    first = tmp_path / "first"
    assert main(["run", "--config", config_path, "--output-dir", str(first)]) == 0
    for method in ("analytic_descent", "natural_gradient"):
        stem = f"{method}_seed1"
        sidecar = load_experiment_config(first / f"{stem}.cfg")
        assert sidecar.hamiltonian_file == ham
        assert sidecar.init_params_file == str(params)
        assert sidecar.preset == "molecular"
        again = tmp_path / method
        rerun = ["run", "--config", str(first / f"{stem}.cfg"), "--output-dir", str(again)]
        assert main(rerun) == 0
        for suffix in (".csv", ".cfg"):
            name = stem + suffix
            assert (again / name).read_bytes() == (first / name).read_bytes(), name


def test_every_setting_round_trips_through_the_sidecar(tmp_path):
    """Every OptimizerConfig and NoiseSpec field is an INI key, and a run's
    sidecar writes it back so that it reloads to the same value."""
    optimizer = OptimizerConfig(
        step_size=0.02, eta=0.03, max_outer=2, max_inner=7, trust_radius=0.3,
        feedback_period=3, feedback_tolerance=0.5, convergence_threshold=1e-7,
        similarity_abort=0.9, similarity_feedback=True, frozen_metric=True,
        record_inner_every=2,
    )
    noise = NoiseSpec(enabled=True, relative_gradient_precision=0.2, rng_seed=5)
    for settings in (optimizer, noise):
        for f in fields(settings):
            assert getattr(settings, f.name) != f.default, f.name

    def section(settings):
        return "".join(f"{f.name} = {getattr(settings, f.name)}\n" for f in fields(settings))

    config_path = _write(
        tmp_path / "every.ini",
        "[hamiltonian]\npreset = spin-ring\nN = 2\nomega_seed = 1\n\n"
        "[ansatz]\nblocks = 1\n\n"
        f"[optimizer]\nmethod = analytic_descent\n{section(optimizer)}\n"
        f"[noise]\n{section(noise)}\n"
        "[run]\nseeds = 1\n",
    )
    assert main(["run", "--config", config_path, "--output-dir", str(tmp_path)]) == 0
    reloaded = load_experiment_config(tmp_path / "analytic_descent_seed1.cfg")
    assert reloaded.optimizer == optimizer
    assert reloaded.noise == noise


def test_run_method_and_seed_overrides(tmp_path):
    config_path = _write(tmp_path / "exp.ini", SPIN_RING_INI)
    out_dir = tmp_path / "out"
    assert main([
        "run", "--config", config_path, "--output-dir", str(out_dir),
        "--method", "natural_gradient", "--seeds", "7",
    ]) == 0
    assert sorted(p.name for p in out_dir.iterdir()) == [
        "natural_gradient_seed7.cfg",
        "natural_gradient_seed7.csv",
    ]


def test_every_run_of_a_config_shares_one_gate_table(tmp_path, monkeypatch):
    """Both methods at two seeds build one gate table, the start circuit's,
    which every seeded rebase is handed."""
    built = []
    builder = ansatz_module._gate_table_of
    monkeypatch.setattr(
        ansatz_module, "_gate_table_of",
        lambda letters: built.append(letters) or builder(letters),
    )
    config_path = _write(tmp_path / "exp.ini", SPIN_RING_INI)
    assert main([
        "run", "--config", config_path, "--output-dir", str(tmp_path / "out"),
        "--seeds", "1,2",
    ]) == 0
    assert len(built) == 1


def test_negative_run_seeds_are_rejected_up_front(tmp_path, capsys):
    # Whatever the seed perturbation and noise settings, the config names the
    # negative seed before anything runs.
    for perturbation, noise in (("0.3", "true"), ("0", "true"), ("0", "false")):
        text = (
            SPIN_RING_INI.replace("seeds = 1", "seeds = 2,-3")
            .replace("init_perturbation = 0.3", f"init_perturbation = {perturbation}")
            .replace("enabled = true", f"enabled = {noise}")
        )
        path = _write(tmp_path / f"neg_{perturbation}_{noise}.ini", text)
        with pytest.raises(ValueError, match="seeds must be non-negative, got -3"):
            load_experiment_config(path)
    config_path = _write(tmp_path / "exp.ini", SPIN_RING_INI)
    out_dir = tmp_path / "out"
    assert main([
        "run", "--config", config_path, "--output-dir", str(out_dir), "--seeds", "-3",
    ]) == 1
    assert "error: seeds must be non-negative, got -3" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("form", ["ini", "flag"])
def test_repeated_run_seeds_are_refused_up_front(tmp_path, capsys, form):
    # A repeated seed would run twice and overwrite its own CSV and sidecar.
    text = SPIN_RING_INI.replace("seeds = 1", "seeds = 1,1") if form == "ini" else SPIN_RING_INI
    config_path = _write(tmp_path / "exp.ini", text)
    flags = ["--seeds", "1,1"] if form == "flag" else []
    out_dir = tmp_path / "out"
    assert main([
        "run", "--config", config_path, "--output-dir", str(out_dir), *flags,
    ]) == 1
    assert capsys.readouterr() == ("", "error: seeds must be distinct, got 1 twice\n")
    assert not out_dir.exists()


def test_run_missing_config_is_an_error(tmp_path, capsys):
    assert main(["run", "--config", str(tmp_path / "nope.ini")]) == 1
    assert "config file not found" in capsys.readouterr().err


_MALFORMED_INI = {
    "key-before-section": ("seed = 1\n" + SPIN_RING_INI, "seed = 1", "key before any [section]"),
    "key-twice": (
        SPIN_RING_INI.replace("seeds = 1", "seeds = 1\nseeds = 2"), "seeds = 2",
        "option 'seeds' in section [run] given twice",
    ),
    "section-twice": (
        SPIN_RING_INI + "\n[noise]\nrng_seed = 1\n", "[noise]",
        "section [noise] given twice",
    ),
    "no-equals": (
        SPIN_RING_INI.replace("blocks = 1", "blocks = 1\nlayers"), "layers",
        "not a key = value line",
    ),
}


@pytest.mark.parametrize("command", ["run", "scaling-study"])
@pytest.mark.parametrize("case", sorted(_MALFORMED_INI))
def test_a_malformed_ini_is_one_error_line(tmp_path, capfd, command, case):
    """A file configparser cannot read ends the command with exit 1 and one
    ``error:`` line naming the file and its first offending line."""
    text, offending, message = _MALFORMED_INI[case]
    config_path = _write(tmp_path / "exp.ini", text)
    # the offending line is the last that holds it: a repeated header's second
    line = len(text.splitlines()) - text.splitlines()[::-1].index(offending)
    out = str(tmp_path / "out")
    where = ["--output-dir", out] if command == "run" else ["--output", out]
    assert main([command, "--config", config_path, *where]) == 1
    captured = capfd.readouterr()
    assert captured.err == f"error: {config_path}:{line}: {message}\n"
    assert captured.out == ""
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "old, new, flags, message",
    [
        ("seeds = 1", "seeds = 1", ["--seeds", ","], "at least one seed is required"),
        ("max_outer = 40", "max_outer = 40\nng_step_size = 0", [],
         "ng_step_size must be > 0, got 0.0"),
        ("max_outer = 40", "max_outer = 40\nng_max_steps = 0", [],
         "ng_max_steps must be >= 1, got 0"),
        ("init_perturbation = 0.3", "init_perturbation = -0.5", [],
         "init_perturbation must be >= 0, got -0.5"),
    ],
    ids=["no-seeds", "ng_step_size", "ng_max_steps", "init_perturbation"],
)
def test_run_settings_out_of_range_are_one_error_line(tmp_path, capsys, old, new, flags, message):
    config_path = _write(tmp_path / "exp.ini", SPIN_RING_INI.replace(old, new))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config_path, "--output-dir", str(out_dir), *flags]) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")
    assert not out_dir.exists()


def test_a_missing_parameter_file_is_one_error_line(tmp_path, capsys):
    params = tmp_path / "missing.txt"
    config_path = _write(
        tmp_path / "exp.ini",
        SPIN_RING_INI.replace("seeds = 1", f"seeds = 1\ninit_params = {params}"),
    )
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config_path, "--output-dir", str(out_dir)]) == 1
    assert capsys.readouterr() == ("", f"error: initial parameter file not found: {params}\n")
    assert not out_dir.exists()


def test_ini_values_are_literal_text(tmp_path):
    """A ``%`` in a value is a character, not interpolation: a run whose
    parameter file and output directory hold one completes, and rerunning
    its sidecar reproduces its trace."""
    params = tmp_path / "a%b.txt"
    np.savetxt(params, np.linspace(-0.4, 0.4, 8))
    first = tmp_path / "out%dir"
    text = SPIN_RING_INI.replace("method = both", "method = analytic_descent")
    text += f"init_params = {params}\noutput_dir = {first}\n"
    config_path = _write(tmp_path / "exp.ini", text)
    assert main(["run", "--config", config_path]) == 0
    sidecar = load_experiment_config(first / "analytic_descent_seed1.cfg")
    assert sidecar.init_params_file == str(params)
    again = tmp_path / "again"
    sidecar_path = str(first / "analytic_descent_seed1.cfg")
    assert main(["run", "--config", sidecar_path, "--output-dir", str(again)]) == 0
    name = "analytic_descent_seed1.csv"
    assert (again / name).read_bytes() == (first / name).read_bytes()


@pytest.mark.parametrize(
    "old, new, key",
    [
        ("step_size = 0.01", "step_size = 0.01\neta = fast", "[optimizer] eta: "),
        ("N = 2", "N = two", "[hamiltonian] N: "),
        ("enabled = true", "enabled = maybe", "[noise] enabled: "),
        ("seeds = 1", "seeds = 1,x", "[run] seeds: "),
        ("max_outer = 40", "max_outer = 40\nconvergence_threshold = nan",
         "convergence_threshold must be finite"),
        ("max_outer = 40", "max_outer = 40\nng_step_size = inf", "ng_step_size must be finite"),
        ("relative_gradient_precision = 0.1", "relative_gradient_precision = -inf",
         "relative_gradient_precision must be finite"),
        ("init_perturbation = 0.3", "init_perturbation = nan", "init_perturbation must be finite"),
        ("N = 2", "N = 2\nJ = nan", "spin_ring_j must be finite"),
    ],
    ids=["eta", "N", "enabled", "seeds", "nan-convergence_threshold", "inf-ng_step_size",
         "inf-relative_gradient_precision", "nan-init_perturbation", "nan-J"],
)
def test_wrong_type_ini_values_name_their_key(tmp_path, capsys, old, new, key):
    config_path = _write(tmp_path / "exp.ini", SPIN_RING_INI.replace(old, new))
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config_path, "--output-dir", str(out_dir)]) == 1
    assert f"error: {key}" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "command, flag, message",
    [
        ("run", "--seeds", "invalid literal for int() with base 10: 'x'"),
        ("scaling-study", "--deltas", "could not convert string to float: 'x'"),
    ],
    ids=["seeds", "deltas"],
)
def test_list_flags_name_themselves(tmp_path, capsys, command, flag, message):
    config_path = _write(tmp_path / "exp.ini", SPIN_RING_INI)
    out = str(tmp_path / "out")
    where = ["--output-dir", out] if command == "run" else ["--output", out]
    value = "1,x" if flag == "--seeds" else "0.1,x"
    assert main([command, "--config", config_path, *where, flag, value]) == 1
    assert f"error: {flag}: {message}" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_negative_omega_seed_is_named(tmp_path, capsys):
    text = SPIN_RING_INI.replace("omega_seed = 1", "omega_seed = -2")
    config_path = _write(tmp_path / "exp.ini", text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config_path, "--output-dir", str(out_dir)]) == 1
    assert capsys.readouterr().err == "error: omega_seed must be non-negative, got -2\n"
    assert not out_dir.exists()
    assert main(["validate", "--spin-ring", "2", "--omega-seed", "-1"]) == 1
    assert capsys.readouterr().err == "error: omega_seed must be non-negative, got -1\n"


@pytest.mark.parametrize("perturbation", ["1e308", "8.99e307"])
def test_overflowing_init_perturbation_is_named(tmp_path, capsys, perturbation):
    """A draw range 2·p past the largest float is refused before the run."""
    text = SPIN_RING_INI.replace("0.3", perturbation)
    config_path = _write(tmp_path / "exp.ini", text)
    out_dir = tmp_path / "out"
    assert main(["run", "--config", config_path, "--output-dir", str(out_dir)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: init_perturbation must be <= 8.988465674311579e+307 ")
    assert err.count("\n") == 1
    assert not out_dir.exists()


def test_largest_init_perturbation_draws_within_its_range(tmp_path):
    largest = float(np.finfo(float).max) / 2
    path = _write(tmp_path / "exp.ini", SPIN_RING_INI.replace("0.3", repr(largest)))
    config = load_experiment_config(path)
    shift = _seed_perturbation(config, 1, 8)
    assert np.all(np.abs(shift) <= largest)


def test_non_finite_initial_parameters_name_their_file(tmp_path, capsys):
    params = tmp_path / "init.txt"
    params.write_text("0.1\n" * 7 + "nan\n")
    config_path = _write(
        tmp_path / "exp.ini",
        SPIN_RING_INI.replace("seeds = 1", f"seeds = 1\ninit_params = {params}"),
    )
    assert main(["run", "--config", config_path, "--output-dir", str(tmp_path)]) == 1
    assert f"error: non-finite entries in {params}" in capsys.readouterr().err


# -------------------------------------------------------- scaling study


def test_default_deltas_span():
    assert len(DEFAULT_DELTAS) == 7
    assert abs(DEFAULT_DELTAS[0] - 0.01) < 1e-15
    assert abs(DEFAULT_DELTAS[-1] - 0.3) < 1e-15


def test_scaling_study_writes_samples_and_slopes(tmp_path, capsys):
    config_path = _write(
        tmp_path / "exp.ini",
        "[hamiltonian]\npreset = spin-ring\nN = 2\nomega_seed = 1\n\n[ansatz]\nblocks = 1\n",
    )
    out = tmp_path / "study.csv"
    assert main([
        "scaling-study", "--config", config_path, "--output", str(out),
        "--samples", "5", "--deltas", "0.05,0.1,0.2", "--rng-seed", "0",
    ]) == 0
    printed = capsys.readouterr().out
    assert "energy_error slope" in printed
    assert "one_minus_f slope" in printed
    lines = out.read_text().splitlines()
    assert lines[0] == "delta,energy_error,one_minus_f"
    assert len(lines) == 1 + 3 * 5
    deltas = [float(line.split(",")[0]) for line in lines[1:]]
    assert deltas == [0.05] * 5 + [0.1] * 5 + [0.2] * 5
    errors = [float(line.split(",")[1]) for line in lines[1:]]
    assert all(np.isfinite(errors))


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--samples", "0", "samples must be >= 1, got 0"),
        ("--samples", "-3", "samples must be >= 1, got -3"),
        ("--rng-seed", "-1", "rng_seed must be non-negative, got -1"),
        ("--deltas", "0,0.1", "deltas must be finite and in (0, π/2), got 0.0"),
        ("--deltas", "-0.1,0.1", "deltas must be finite and in (0, π/2), got -0.1"),
        ("--deltas", "nan,0.1", "deltas must be finite and in (0, π/2), got nan"),
        ("--deltas", "0.1,inf", "deltas must be finite and in (0, π/2), got inf"),
        ("--deltas", "2.0,3.5", "deltas must be finite and in (0, π/2), got 2.0"),
        ("--deltas", "0.1", "deltas must hold at least two distinct radii, got (0.1,)"),
        ("--deltas", "0.1,0.1",
         "deltas must hold at least two distinct radii, got (0.1, 0.1)"),
    ],
    ids=["samples-0", "samples-negative", "rng-seed-negative", "delta-0", "delta-negative",
         "delta-nan", "delta-inf", "delta-past-half-pi", "one-delta", "repeated-delta"],
)
def test_scaling_study_refuses_bad_inputs(tmp_path, capfd, flag, value, message):
    """One ``error:`` line on stderr, exit 1, and nothing else printed: no
    LAPACK complaint, no slope fitted, no CSV written."""
    config_path = _write(
        tmp_path / "exp.ini",
        "[hamiltonian]\npreset = spin-ring\nN = 2\nomega_seed = 1\n\n[ansatz]\nblocks = 1\n",
    )
    out = tmp_path / "study.csv"
    status = main([
        "scaling-study", "--config", config_path, "--output", str(out),
        "--samples", "3", f"{flag}={value}",
    ])
    captured = capfd.readouterr()
    assert status == 1
    assert (captured.out, captured.err) == ("", f"error: {message}\n")
    assert not out.exists()
