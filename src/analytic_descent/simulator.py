"""Exact statevector simulation: the stand-in for the quantum device.

States live on N qubits as dense complex amplitude vectors of length 2^N,
indexed so that qubit 0 is the most significant bit (matching the leftmost
letter of a Pauli string).  Every gate is a Pauli rotation

    exp(-i θ P / 2) ψ = cos(θ/2) ψ - i sin(θ/2) P ψ,

and a Pauli string acts as a signed permutation of the computational basis:
P|i⟩ = i^{n_Y} (-1)^{popcount(i & m_{YZ})} |i ^ m_{XY}⟩, where m_{XY} flips
the X/Y bits and m_{YZ} collects the sign-carrying Y/Z bits.  A circuit's
gates are read from one gate table of those kernels (``pauli._pauli_kernel``)
with one phase array, the spawns -(i/2)·phase; ``_gate_table`` builds it and
the circuit keeps it (``AnsatzCircuit._gate_table``, handed on by
``rebased``).  Every use of H, from expectations to the dense matrix and the
ground-energy matvec, reads ``PauliSum.flip_patterns``, kept by the sum.
A kernel is not cached on its own: the gate table and the flip patterns
hold the only copies.

A state is prepared by one loop over the gate table (``_forward``): each
gate is c·ψ + (-i·s·phase)·ψ[src], with no gather for a diagonal
(Z/I-only) generator.  Derivatives come from one forward tangent sweep over
the same table that carries ψ and its first derivatives t_m = ∂ψ/∂θ_m.
Each gate rotates the live rows, then spawns its tangent from the rotated ψ
as (-i/2)·P·(Uψ), a gather and one product.  On request the sweep also
takes the energy's pair terms Re⟨Hψ|t_kl⟩ (t_kl = ∂²ψ/∂θ_k∂θ_l) as
overlaps with one adjoint row per gate, without forming any t_kl.  The
metric, the energy gradient and the batched schedule oracle are all built
from it.

A register's first 2^N arrays are a circuit's gate table and H's flip
patterns, so the cap ``pauli.MAX_QUBITS`` is checked there and nowhere
else: ``AnsatzCircuit._gate_table`` refuses a larger register before its
table is built, and ``PauliSum.flip_patterns`` before any array of H is.
Every simulation starts at ``_rotations``, which checks θ and, given the
H the simulation will apply, refuses an H on another register before it
reads the gate table; ``expectation`` does for a caller's state
(``_check_register``), so a mismatch costs no simulation.

All operations are pure functions over immutable values, and the module
keeps no state between calls: a gate table lives as long as the circuits
that hold it, a compiled sum as long as its sum, and importing the module
builds neither.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .pauli import PauliSum, _pauli_kernel

if TYPE_CHECKING:  # import only for annotations; ansatz imports us at runtime
    from .ansatz import AnsatzCircuit

# Dense diagonalization up to this dimension (N ≤ 6), ARPACK above: at
# dimension 64 eigvalsh takes about 0.5 ms against ARPACK's 3 ms, and ARPACK
# wins from dimension 256 on.
_DENSE_DIM = 64

# Largest register ``hamiltonian_matrix`` writes densely (a 16 MiB matrix).
_DENSE_MATRIX_QUBITS = 10

_NORM_TOLERANCE = 1e-10

class GroundEnergyError(RuntimeError):
    """Iterative eigensolver failed to converge."""


@dataclass(frozen=True, eq=False)
class StateVector:
    """Immutable 2^num_qubits complex amplitude vector.

    The L2 norm must be 1 within 1e-10 on construction.
    """

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (2**self.num_qubits,):
            raise ValueError(
                f"expected {2**self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got shape {amps.shape}"
            )
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > _NORM_TOLERANCE:
            raise ValueError(f"state norm {norm} deviates from 1 beyond 1e-10")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)


def _check_register(num_qubits: int, h: PauliSum) -> None:
    """Refuse an H on another register than a ``num_qubits``-qubit state's."""
    if h.num_qubits != num_qubits:
        raise ValueError(
            f"operator on {h.num_qubits} qubits does not match {num_qubits}-qubit state"
        )


def _apply_hamiltonian(amps: np.ndarray, h: PauliSum) -> np.ndarray:
    """H·amps for 1-D amplitudes or batches with amplitudes on the last axis:
    one gather and one multiply-add per flip pattern of ``h.flip_patterns``.
    The register was checked where the amplitudes' simulation started; the
    patterns are read before ``out``, so a sum over the cap builds neither."""
    patterns = h.flip_patterns
    out = np.zeros(amps.shape, dtype=np.complex128)
    for src, weight in patterns:
        if src is None:
            term = amps * weight
        else:
            term = amps.take(src, axis=-1)
            term *= weight
        out += term
        del term  # one block-sized temporary at a time
    return out


def _real_overlaps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Re⟨aᵢ|bⱼ⟩ for the rows of contiguous a and b (a 1-D array is one row)."""
    return a.view(np.float64) @ b.view(np.float64).T


def expectation(psi: StateVector, h: PauliSum) -> float:
    """⟨ψ|H|ψ⟩ = Σ c_j ⟨ψ|P_j|ψ⟩ for a real-weighted Pauli sum, as ⟨ψ|Hψ⟩.

    The imaginary residue must vanish (|Im| < 1e-10) since H is Hermitian;
    a larger residue (a corrupted state or sum) raises, as does an H on
    another register than ψ's.
    """
    _check_register(psi.num_qubits, h)
    return _expectation(psi.amplitudes, h)[0]


def _expectation(amps: np.ndarray, h: PauliSum) -> tuple[float, np.ndarray]:
    """``expectation`` on raw amplitudes, and the H·amps it was taken from."""
    h_amps = _apply_hamiltonian(amps, h)
    total = np.vdot(amps, h_amps)
    if abs(total.imag) >= 1e-10:
        raise ValueError(f"expectation has imaginary residue {total.imag}")
    return float(total.real), h_amps


def hamiltonian_matrix(h: PauliSum) -> np.ndarray:
    """Dense Hermitian matrix of a Pauli sum (small systems only).

    Row i of each flip pattern holds its weight[i] at column src[i] (the
    diagonal for the Z-only pattern), so the dense form is written from the
    compiled sum without any Kronecker products.
    """
    if h.num_qubits > _DENSE_MATRIX_QUBITS:
        raise ValueError(
            f"dense matrix limited to {_DENSE_MATRIX_QUBITS} qubits, got {h.num_qubits}"
        )
    dim = 2**h.num_qubits
    idx = np.arange(dim)
    matrix = np.zeros((dim, dim), dtype=np.complex128)
    for src, weight in h.flip_patterns:
        matrix[idx, idx if src is None else src] = weight
    return matrix


def ground_energy(h: PauliSum) -> float:
    """Minimum eigenvalue of a Pauli sum, absolute accuracy ≤ 1e-8.

    Registers of up to 6 qubits (dimension 64) are diagonalized densely;
    above that an iterative extremal eigensolver (ARPACK's Lanczos) runs on
    the matrix-free H·v product of the sum's compiled flip patterns.  The
    solver's module is imported on that path only, so importing the package
    does not load ``scipy.sparse``.  The compiled patterns are read first,
    so a register over the cap is refused before any 2^N array is built;
    a sum without patterns has no terms, and its ground energy is 0.
    """
    if not h.flip_patterns:
        return 0.0
    dim = 2**h.num_qubits
    if dim <= _DENSE_DIM:
        return float(np.linalg.eigvalsh(hamiltonian_matrix(h)).min())
    import scipy.sparse.linalg

    def matvec(v: np.ndarray) -> np.ndarray:
        return _apply_hamiltonian(np.asarray(v, dtype=np.complex128).reshape(dim), h)

    operator = scipy.sparse.linalg.LinearOperator(
        (dim, dim), matvec=matvec, dtype=np.complex128
    )
    # A fixed, generic starting vector keeps the solve deterministic and
    # overlaps every eigenspace; the uniform vector is an eigenvector of
    # symmetric sums such as the field-free Heisenberg ring.
    v0 = np.random.default_rng(0).standard_normal(dim).astype(np.complex128)
    v0 /= np.linalg.norm(v0)
    try:
        values = scipy.sparse.linalg.eigsh(
            operator,
            k=1,
            which="SA",
            tol=1e-10,
            maxiter=10_000,
            v0=v0,
            return_eigenvectors=False,
        )
    except scipy.sparse.linalg.ArpackNoConvergence as exc:
        residual = "unavailable"
        if len(exc.eigenvalues) and exc.eigenvectors is not None:
            vec = exc.eigenvectors[:, 0]
            residual = float(
                np.linalg.norm(matvec(vec) - exc.eigenvalues[0] * vec)
            )
        raise GroundEnergyError(
            f"extremal eigensolver did not converge in 10000 iterations "
            f"(residual: {residual})"
        ) from exc
    return float(values[0])


def _gate_table(letters: tuple[str, ...]):
    """A gate sequence's signed permutations, stacked: per gate the gather
    index (None for a diagonal, Z/I-only generator, whose index is the
    identity), then the ν×2^N spawn phases -(i/2)·phase, its one phase array.

    Built on a circuit's first simulation, kept by the circuit and handed on
    by ``rebased`` (``AnsatzCircuit._gate_table``); read-only.
    Gates with the same generator share one kernel and so one gather index.
    """
    unique = {word: _pauli_kernel(word) for word in set(letters)}
    kernels = [unique[word] for word in letters]
    srcs = tuple(src if src[0] else None for src, _ in kernels)
    spawns = -0.5j * np.stack([phase for _, phase in kernels])
    spawns.flags.writeable = False
    return srcs, spawns


def _rotations(circuit: AnsatzCircuit, theta, h: PauliSum | None = None):
    """The gates of ``circuit`` at θ₀+θ, read from its gate table: the
    gathers and spawn phases, every gate's cos(half-angle) and
    -i·sin(half-angle)·phase = 2·sin(half-angle)·spawn, in one product.

    Every simulation starts here, so the register of ``h``, when the
    simulation will apply one, and θ (ν entries, all finite) are checked
    here; the gate table, read next, refuses a register over the cap.
    """
    if h is not None:
        _check_register(circuit.num_qubits, h)
    theta = np.asarray(theta, dtype=float)
    nu = circuit.num_parameters
    if theta.shape != (nu,):
        raise ValueError(f"expected {nu} parameters, got shape {theta.shape}")
    if not np.isfinite(theta).all():
        raise ValueError("non-finite entries in theta")
    srcs, spawns = circuit._gate_table
    half = 0.5 * (circuit.theta_ref + theta)
    return srcs, spawns, np.cos(half).tolist(), (2.0 * np.sin(half))[:, None] * spawns


def _forward(circuit: AnsatzCircuit, gates) -> np.ndarray:
    """U_ν⋯U₁|0⟩ for ``_rotations``' gates: gate l maps ψ to
    c·ψ + (-i·s·phase)·ψ[src], with no gather for a diagonal generator."""
    srcs, _, cos, rotate = gates
    psi = np.zeros(2**circuit.num_qubits, dtype=np.complex128)
    psi[0] = 1.0
    for src, c, rot in zip(srcs, cos, rotate):
        psi = c * psi + rot * (psi if src is None else psi.take(src))
    return psi


def _sweep(circuit: AnsatzCircuit, gates, adjoint=None):
    """ψ and the ν tangents tₘ = ∂ψ/∂θₘ in one forward sweep over
    ``_rotations``' gates; with ``adjoint`` rows aₗ, also the matrix of
    overlaps Re⟨aₗ|tₖ after gate l⟩, k < l, at [k, l] (zero elsewhere).

    ψ and the started tangents sit in one block.  Gate l first rotates its
    live rows, c·x + (-i·s·phase)·x[src], with one gather (none for a
    diagonal generator), then spawns tₗ = (-i/2)·Pₗ·(Uₗψ) from the rotated ψ
    with one more gather and one product.  Pₗ commutes with Uₗ, and products
    with ±1, ±i and ±i/2 are exact, so tₗ equals (-i/2)·(c·Pψ - i·s·ψ), the
    spawn from the rotation's own Pauli image, value for value.
    """
    srcs, spawns, cos, rotate = gates
    nu = circuit.num_parameters
    # Row 0 carries |ψ⟩, rows 1..l the tangents started before gate l.
    block = np.zeros((nu + 1, 2**circuit.num_qubits), dtype=np.complex128)
    block[0, 0] = 1.0
    overlaps = None if adjoint is None else np.zeros((nu, nu))
    for l, (src, c) in enumerate(zip(srcs, cos)):
        live = block[: l + 1]
        if src is None:  # diagonal: the gather would be the identity
            rotated = live * rotate[l]
        else:
            rotated = live.take(src, axis=1)
            rotated *= rotate[l]
        live *= c
        live += rotated
        psi = live[0] if src is None else live[0].take(src)
        np.multiply(psi, spawns[l], out=block[l + 1])
        if adjoint is not None:
            overlaps[:l, l] = _real_overlaps(block[1 : l + 1], adjoint[l])
    return block[0], block[1:], overlaps


def _state_and_tangents(circuit: AnsatzCircuit, theta, h: PauliSum | None = None):
    """Final state and all ν analytic tangents ∂|ψ⟩/∂θ_m in one sweep; the
    H the caller will apply, if given, is checked against the register first.

    Gate m contributes tangent U_ν...U_{m+1}·(-i/2)P_m·U_m...U_1|0⟩.  The
    work is O(ν²·2^N) flops in O(ν) vectorized operations.
    """
    psi, tangents, _ = _sweep(circuit, _rotations(circuit, theta, h))
    return psi, tangents


def _state_tangents_and_hessian(circuit: AnsatzCircuit, theta, h: PauliSum):
    """ψ, the tangents T, the matrix of Re⟨Hψ|t_kl⟩, k < l, at [k, l]
    (zero elsewhere), where t_kl = ∂²ψ/∂θ_k∂θ_l, and Hψ; ψ and T are
    ``_state_and_tangents``'s, bit for bit.

    t_kl is tₖ carried through gate l, hit by (-i/2)·Pₗ and carried on by
    Vₗ = U_ν⋯U_{l+1}, so Re⟨Hψ|t_kl⟩ = Re⟨aₗ|tₖ after gate l⟩ with the adjoint
    row aₗ = (i/2)·Pₗ·Vₗ†·Hψ (Jones & Gacon, arXiv 2009.02823).  A forward pass
    on one vector gives ψ, a backward pass from Hψ every aₗ, and the tangent
    sweep each row's overlaps: O(ν²·2^N) work, and no pair tangent is formed.
    """
    gates = _rotations(circuit, theta, h)
    srcs, spawns, cos, rotate = gates
    # The forward ψ is the sweep's, value for value (the same products in
    # the same order), so its Hψ serves the caller too.
    h_psi = mu = _apply_hamiltonian(_forward(circuit, gates), h)
    adjoint = np.empty((len(srcs), len(mu)), dtype=np.complex128)
    for l in reversed(range(len(srcs))):
        gathered = mu if srcs[l] is None else mu.take(srcs[l])
        np.multiply(gathered, -spawns[l], out=adjoint[l])  # (i/2)·Pₗ·μ
        mu = cos[l] * mu - rotate[l] * gathered  # Uₗ†·μ
    return *_sweep(circuit, gates, adjoint), h_psi
