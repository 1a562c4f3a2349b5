"""Parameterized circuits: gate lists, the energy function, and its gradient.

A circuit is an ordered list of Pauli-rotation generators plus a reference
parameter vector θ₀.  Every evaluation is taken at θ₀ + θ, so optimizers can
work in a local frame around the current reference and move it with
``rebased`` between outer iterations.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import pauli
from .pauli import PauliString
from .simulator import (
    StateVector,
    _apply_hamiltonian,
    _forward,
    _gate_table as _gate_table_of,
    _real_overlaps,
    _rotations,
    _state_and_tangents,
    expectation,
)


def _frozen_array(value, shape: tuple, name: str) -> np.ndarray:
    """A read-only float copy of ``value``, checked for shape and finiteness."""
    arr = np.array(value, dtype=float)
    if arr.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
    if not np.isfinite(arr).all():
        raise ValueError(f"non-finite entries in {name}")
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class AnsatzCircuit:
    """Ordered Pauli-rotation gates with a stored reference point θ₀.

    Gate k applies exp(-i(θ₀ₖ+θₖ)Pₖ/2); all generators share the qubit
    count and ν = len(generators) = len(theta_ref); every angle is finite.
    Instances are immutable; ``rebased`` returns a new circuit with a
    shifted reference.
    """

    num_qubits: int
    generators: tuple[PauliString, ...]
    theta_ref: np.ndarray = field(default=None)  # zeros when omitted

    def __post_init__(self):
        if not self.generators:
            raise ValueError("circuit needs at least one gate")
        generators = tuple(self.generators)
        for g in generators:
            if g.num_qubits != self.num_qubits:
                raise ValueError(
                    f"generator {g} acts on {g.num_qubits} qubits, "
                    f"circuit declares {self.num_qubits}"
                )
        object.__setattr__(self, "generators", generators)
        ref = self.theta_ref if self.theta_ref is not None else np.zeros(len(generators))
        object.__setattr__(
            self, "theta_ref", _frozen_array(ref, (len(generators),), "theta_ref")
        )

    @property
    def num_parameters(self) -> int:
        return len(self.generators)

    @cached_property
    def _gate_table(self):
        """The simulator's table of these generators, built on first use and
        kept here, the only cache of it.  Every simulation reads it before
        its first 2^N array, so this and ``PauliSum.flip_patterns`` are the
        only checks of the cap ``pauli.MAX_QUBITS``."""
        if self.num_qubits > pauli.MAX_QUBITS:
            raise ValueError(
                f"qubit count {self.num_qubits} exceeds cap {pauli.MAX_QUBITS}"
            )
        return _gate_table_of(tuple(g.letters for g in self.generators))

    def rebased(self, delta) -> "AnsatzCircuit":
        """New circuit with θ₀ ← θ₀ + delta (the local frame resets to 0).

        It shares this circuit's gate table once one is built, and never
        builds one itself."""
        delta = _frozen_array(delta, (self.num_parameters,), "delta")
        moved = copy.copy(self)
        ref = _frozen_array(self.theta_ref + delta, (self.num_parameters,), "theta_ref")
        object.__setattr__(moved, "theta_ref", ref)
        return moved


def build_hardware_efficient(N: int, blocks: int) -> AnsatzCircuit:
    """Layered ansatz with ν = N + 3·N·B parameters.

    One initial layer of single-qubit Y rotations, then B blocks of
    (i) N two-qubit ZZ rotations on ring pairs (i, i+1 mod N),
    (ii) N X rotations, (iii) N Y rotations.  theta_ref starts at zeros.
    """
    if N < 2:
        raise ValueError(f"hardware-efficient ansatz needs N >= 2 qubits, got {N}")
    if blocks < 1:
        raise ValueError(f"block count must be >= 1, got {blocks}")

    block = [{i: "Z", (i + 1) % N: "Z"} for i in range(N)]
    block += [{i: letter} for letter in "XY" for i in range(N)]
    words = [{i: "Y"} for i in range(N)] + block * blocks
    return AnsatzCircuit(N, tuple(pauli._word(N, word) for word in words))


def prepare_state(circuit: AnsatzCircuit, theta) -> StateVector:
    """Apply the gates in index order at angles θ₀ + θ to the zero state."""
    return StateVector(circuit.num_qubits, _forward(circuit, _rotations(circuit, theta)))


def energy(circuit: AnsatzCircuit, theta, h) -> float:
    """E(θ) = ⟨ψ(θ₀+θ)|H|ψ(θ₀+θ)⟩ of ``prepare_state``'s state, whose
    simulation checks H's register before it starts."""
    psi = _forward(circuit, _rotations(circuit, theta, h))
    return expectation(StateVector(circuit.num_qubits, psi), h)


def energy_gradient(circuit: AnsatzCircuit, theta, h) -> np.ndarray:
    """Exact ∂E/∂θ from one tangent sweep: gₖ = 2·Re⟨tₖ|H|ψ⟩, tₖ = ∂ψ/∂θₖ.

    For Pauli-generated gates this equals the parameter-shift combination
    [E(+π/2)-E(-π/2)]/2 exactly.
    """
    psi, tangents = _state_and_tangents(circuit, theta, h)
    return 2.0 * _real_overlaps(tangents, _apply_hamiltonian(psi, h))

