"""Quantum Fisher information metric for natural-gradient preconditioning.

For a pure state |ψ(θ)⟩ the metric is F_mn = 2 tr[∂ₘρ ∂ₙρ] with
ρ = |ψ⟩⟨ψ|, which expands to 4 Re⟨∂ₘψ|∂ₙψ⟩ + 4 Re(⟨ψ|∂ₘψ⟩⟨ψ|∂ₙψ⟩).
`qfi_from_tangents` evaluates this from a tangent sweep's ψ and tangents.
The paper's metric surrogate (O(δ) accurate near θ₀) is provided alongside
for study.  For a circuit of Pauli rotations its a·b word vanishes and its
b·b coefficients are 2F(θ₀), so it is F(θ₀)∘wwᵀ with one weight wₘ per
axis, evaluated from the anchor metric itself; the optimizer uses the exact
metric.  Every sweep starts at ``simulator._rotations``, which checks θ and
the register's qubit cap.

The linear algebra is numpy's alone: a Cholesky factorization checks that
a metric is PSD, and ``regularized_natural_direction`` keeps, per metric
and η, the inverse (F + ηI)⁻¹ built from the Cholesky factor of F + ηI,
so each solve is one matrix-vector product.  numpy has no triangular
solve, so that inverse is the one factor-time form that keeps a frozen
metric's solves cheap; it costs an explicit inverse per factorization and
some accuracy (see ``regularized_natural_direction``).  No LAPACK wrapper
is called directly, and importing this module loads no scipy.

A Gram metric from ``qfi_from_tangents`` is PSD by construction and skips
the separate check (``MetricTensor``'s ``check_psd=False``): the Cholesky
of F + ηI in its factorization is its PSD check, so a per-step metric pays
one Cholesky, not two.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field
from functools import cache

import numpy as np
from numpy.linalg import LinAlgError

from .ansatz import AnsatzCircuit
# Not used here: the benchmark's boundaries() wraps metric.prepare_state.
from .ansatz import prepare_state  # noqa: F401
from .simulator import _expectation, _real_overlaps, _state_and_tangents
from .surrogate import _half_angle_tangents

_SYMMETRY_TOLERANCE = 1e-10
_PSD_TOLERANCE = -1e-8


@cache
def _identity(nu: int) -> np.ndarray:
    """The ν×ν identity, read-only, built once per ν."""
    eye = np.eye(nu)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True)
class MetricTensor:
    """Symmetric PSD ν×ν metric: F + 1e-8·I must have a Cholesky factor.

    ``regularized_natural_direction`` keeps (F + ηI)⁻¹ here, keyed by η,
    so a metric reused across solves is factorized once per η.

    ``check_psd=False`` is reserved for ``qfi_from_tangents``: a Gram metric
    is exactly symmetric and PSD up to rounding by construction, so only its
    shape and finiteness are checked, and its fresh entries are kept without
    a copy.  The Cholesky of F + ηI in ``cho_factor`` is then its PSD check,
    and still rejects a system that is not positive definite.
    """

    nu: int
    entries: np.ndarray
    check_psd: InitVar[bool] = True
    _factors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self, check_psd: bool):
        entries = np.asarray(self.entries, dtype=float)
        if entries.shape != (self.nu, self.nu):
            raise ValueError(
                f"expected {self.nu}x{self.nu} entries, got shape {entries.shape}"
            )
        if not np.all(np.isfinite(entries)):
            raise ValueError("non-finite metric entries")
        if check_psd:
            if self.nu:
                asym = float(abs(entries - entries.T).max())
                if asym > _SYMMETRY_TOLERANCE:
                    raise ValueError(f"metric asymmetry {asym:.3g} exceeds 1e-10")
                try:
                    np.linalg.cholesky(entries - _PSD_TOLERANCE * _identity(self.nu))
                except LinAlgError:
                    smallest = float(np.linalg.eigvalsh(entries)[0])
                    raise ValueError(
                        "metric is not positive semidefinite: "
                        f"smallest eigenvalue {smallest:.3g}"
                    ) from None
            entries = entries.copy()
        entries.flags.writeable = False
        object.__setattr__(self, "entries", entries)


def qfi_from_tangents(psi: np.ndarray, tangents: np.ndarray) -> MetricTensor:
    """Fisher information of a state ψ with tangent rows tₘ = ∂ψ/∂θₘ.

    Both terms are real products.  Re⟨∂ₘψ|∂ₙψ⟩ is X·Xᵀ + Y·Yᵀ for the
    rows' real parts X and imaginary parts Y, and with sₘ = ⟨∂ₘψ|ψ⟩,
    Re(⟨ψ|∂ₘψ⟩⟨ψ|∂ₙψ⟩) = Re(sₘsₙ) = s_r s_rᵀ − s_i s_iᵀ.  Every term is
    exactly symmetric, so F is.  X and Y are summed apart, not interleaved
    in one real row: a one-parameter metric then rounds as the complex
    inner product ⟨∂ψ|∂ψ⟩ does, so frozen and per-step ν = 1 walks agree.
    """
    real, imag = tangents.real, tangents.imag
    s = tangents.conj() @ psi
    entries = real @ real.T
    entries += imag @ imag.T
    entries += s.real[:, None] * s.real
    entries -= s.imag[:, None] * s.imag
    entries *= 4.0
    return MetricTensor(len(tangents), entries, check_psd=False)


def qfi_exact(circuit: AnsatzCircuit, theta) -> MetricTensor:
    """Fisher information at θ₀+θ: ``qfi_from_tangents`` of one tangent sweep."""
    return qfi_from_tangents(*_state_and_tangents(circuit, theta))


def energy_gradient_metric(circuit: AnsatzCircuit, theta, h):
    """``energy``, ``energy_gradient`` and ``qfi_exact`` from one sweep, bit for bit."""
    psi, tangents = _state_and_tangents(circuit, theta)
    e, h_psi = _expectation(psi, h)
    return e, 2.0 * _real_overlaps(tangents, h_psi), qfi_from_tangents(psi, tangents)


def qfi_surrogate_estimate(circuit: AnsatzCircuit, theta0) -> MetricTensor:
    """The metric surrogate's anchor F(θ₀), from one tangent sweep.

    The paper combines overlaps of ±π/2 single-shifted states: the b·b
    coefficient [m,n] the four of the (±m, ±n) pairs, and the a·b word's
    [·,n] the two of ψ with the ±n ones.  Every gate is exp(−iθP/2) with
    P² = I, so ψ(±π/2·eₘ) = (ψ ± 2tₘ)/√2 with tₘ = ∂ψ/∂θₘ, and ⟨ψ|tₘ⟩ is
    imaginary because ψ stays normalized; the four-overlap combination is
    then 2·F(θ₀) and the two-overlap one 0, so the surrogate is fixed by
    F(θ₀) alone (``qfi_surrogate_eval``).
    """
    return qfi_exact(circuit, theta0)


def qfi_surrogate_eval(anchor: MetricTensor, theta) -> MetricTensor:
    """Metric surrogate at θ (relative to θ₀) from the anchor metric F(θ₀).

    The b·b word alone: F(θ₀)∘wwᵀ with w = 2B', where B'ₘ is the
    θₘ-derivative of the single-b monomial.  In t = tan(θ/2) that is
    wₘ = (1 − tₘ²)/∏(1 + t²), declared for ‖θ‖∞ < π/2 only
    (``TrustRegionError`` outside).  O(δ) accurate; at θ=0 it is F(θ₀)
    exactly.
    """
    t, q = _half_angle_tangents(anchor, theta)
    w = (1.0 - t * t) / q.prod()
    return MetricTensor(anchor.nu, anchor.entries * np.outer(w, w))


def cho_factor(entries: np.ndarray, eta: float) -> np.ndarray:
    """(F + ηI)⁻¹ as L⁻ᵀL⁻¹, from the Cholesky factor L of F + ηI.

    A system that is not positive definite raises ``LinAlgError`` naming
    its smallest eigenvalue.
    """
    shifted = entries + eta * _identity(len(entries))
    try:
        lower = np.linalg.cholesky(shifted)
    except LinAlgError as exc:
        smallest = float(np.linalg.eigvalsh(shifted)[0])
        raise LinAlgError(
            f"regularized metric is not positive definite "
            f"(smallest eigenvalue {smallest:.6g}, eta={eta})"
        ) from exc
    inverse = np.linalg.inv(lower)
    return inverse.T @ inverse


def regularized_natural_direction(F: MetricTensor, eta: float, g) -> np.ndarray:
    """Solve (F + ηI)·d = g through a Cholesky factorization.

    The first solve at a given η runs ``cho_factor`` and caches its
    (F + ηI)⁻¹ on ``F``; every solve, that one included, is then one
    product (F + ηI)⁻¹·g, so a metric frozen over an inner loop is
    factorized once and repeated solves of one g agree bit for bit.

    Accuracy: applying an explicit inverse is not backward stable.  On
    exact ansatz metrics (rank-deficient, η from 1e-6 to 0.5) the residual
    ‖(F + ηI)·d − g‖ reached 12.8·ε·‖F + ηI‖·‖d‖, against 1.1·ε for
    LAPACK's triangular Cholesky solve.  A metric solved only once, as in
    a per-step walk, still pays for the whole inverse.
    """
    if eta < 0.0:
        raise ValueError(f"regularization must be >= 0, got {eta}")
    g = np.asarray(g, dtype=float)
    if g.shape != (F.nu,):
        raise ValueError(f"expected gradient of length {F.nu}, got shape {g.shape}")
    inverse = F._factors.get(eta)
    if inverse is None:
        inverse = F._factors[eta] = cho_factor(F.entries, eta)
    return inverse @ g
