"""Truncated trigonometric surrogate of the energy landscape around θ₀.

Every single-axis slice of a Pauli-rotation circuit energy is of the form
p + q·cosθ + r·sinθ, so the full landscape expands over products of the
per-axis Fourier components

    a(θ) = (1 + cosθ)/2,   b(θ) = sinθ/2,   c(θ) = (1 - cosθ)/2.

The surrogate keeps the words with at most two non-`a` letters of combined
order ≤ 2 (the all-`a` product, single-axis b and c words, and the b·b pair
words) and estimates their coefficients from 2ν²+ν+1 energy queries at
shifts of 0, ±π/2 and π on at most two axes.  The resulting model is exact
along every single axis and wrong by O(δ³) in a ball ‖θ‖∞ ≤ δ.

`estimate_coefficients` accepts any callable `shift ↦ energy`; the
`CircuitOracle` here additionally exposes a batched route that shares prefix
states and Heisenberg-conjugated Hamiltonian matrices across schedule points
(identical values, far fewer gate applications).

Inside the trust region ‖θ‖∞ < π/2 every a(θₖ) ≥ 1/2, so the model is
evaluated in closed form through the ratios u = b/a and w = c/a:
Ê(θ) = A·(eA + u·eB + w·eC + uᵀ·eD·u) with A = ∏ a(θₖ), which is O(ν²) in
one matrix-vector product.  Outside it (the schedule shifts ±π/2 and π
themselves) `eval_energy` switches to a division-free route built from
partial products of a; the gradient and variance routines are declared
only inside the region.
"""

from __future__ import annotations

import itertools
import json
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .ansatz import AnsatzCircuit, energy
from .simulator import _apply_pauli, _apply_rotation, hamiltonian_matrix, zero_state

HALF_PI = 0.5 * np.pi

# Largest dimension for the matrix-conjugation fast oracle; above it the
# pointwise route is used (same values, more gate applications).
_FAST_ORACLE_DIM = 128
_FAST_ORACLE_BYTES = 64_000_000


class TrustRegionError(ValueError):
    """θ left the |θₖ| < π/2 region where the divide-by-a(θₖ) path is stable."""


@dataclass(frozen=True)
class QueryPoint:
    """One energy query of the estimation schedule.

    ``index`` is the canonical position in the schedule and keys the query's
    noise stream; ``kind`` names the coefficient class the query serves
    (A, B+, B-, C, D++, D--, D-+, D+-); ``axes`` lists the shifted axes.
    """

    index: int
    kind: str
    axes: tuple[int, ...]

    _SHIFTS = {
        "A": (),
        "B+": (HALF_PI,),
        "B-": (-HALF_PI,),
        "C": (np.pi,),
        "D++": (HALF_PI, HALF_PI),
        "D--": (-HALF_PI, -HALF_PI),
        "D-+": (-HALF_PI, HALF_PI),
        "D+-": (HALF_PI, -HALF_PI),
    }

    def shift(self, nu: int) -> np.ndarray:
        """Dense ν-vector form; at most 2 nonzero entries from {±π/2, π}."""
        vec = np.zeros(nu)
        for axis, value in zip(self.axes, self._SHIFTS[self.kind]):
            vec[axis] = value
        return vec


def query_schedule(nu: int) -> list[QueryPoint]:
    """Canonical estimation schedule: exactly 2ν²+ν+1 distinct points.

    Order: the unshifted point, then (B+, B-) per axis, then C per axis,
    then the four pair points (++, --, -+, +-) per lexicographic pair k<l.
    """
    if nu < 1:
        raise ValueError(f"parameter count must be >= 1, got {nu}")
    points = [QueryPoint(0, "A", ())]
    for k in range(nu):
        points.append(QueryPoint(len(points), "B+", (k,)))
        points.append(QueryPoint(len(points), "B-", (k,)))
    for k in range(nu):
        points.append(QueryPoint(len(points), "C", (k,)))
    for k in range(nu):
        for l in range(k + 1, nu):
            for kind in ("D++", "D--", "D-+", "D+-"):
                points.append(QueryPoint(len(points), kind, (k, l)))
    assert len(points) == 2 * nu * nu + nu + 1
    return points


@dataclass(frozen=True)
class NoiseLevels:
    """Per-raw-query Gaussian standard deviations by coefficient class.

    This is what the shot-noise precision policy resolves to; the B class
    gets its own level because its coefficient combines two raw queries.
    """

    sigma_a: float
    sigma_b: float
    sigma_c: float
    sigma_d: float

    def for_kind(self, kind: str) -> float:
        return {
            "A": self.sigma_a,
            "B": self.sigma_b,
            "C": self.sigma_c,
            "D": self.sigma_d,
        }[kind[0]]


@dataclass(frozen=True)
class SurrogateModel:
    """Estimated surrogate coefficients and their variances at θ₀.

    ``eD``/``varD`` are strictly upper triangular (pairs k < l only); all
    entries are finite; instances are immutable.
    """

    theta0: np.ndarray
    eA: float
    eB: np.ndarray
    eC: np.ndarray
    eD: np.ndarray
    varA: float = 0.0
    varB: np.ndarray = None
    varC: np.ndarray = None
    varD: np.ndarray = None

    def __post_init__(self):
        nu = len(self.eB)
        def freeze(name, value, shape):
            arr = np.zeros(shape) if value is None else np.asarray(value, dtype=float)
            if arr.shape != shape:
                raise ValueError(f"{name} must have shape {shape}, got {arr.shape}")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"non-finite entries in {name}")
            arr = arr.copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        freeze("theta0", self.theta0, (nu,))
        freeze("eB", self.eB, (nu,))
        freeze("eC", self.eC, (nu,))
        freeze("eD", self.eD, (nu, nu))
        freeze("varB", self.varB, (nu,))
        freeze("varC", self.varC, (nu,))
        freeze("varD", self.varD, (nu, nu))
        for name in ("eD", "varD"):
            arr = getattr(self, name)
            if np.any(np.tril(arr) != 0.0):
                raise ValueError(f"{name} must be strictly upper triangular")
        if not np.isfinite(self.eA) or not np.isfinite(self.varA):
            raise ValueError("non-finite scalar coefficient")

    @property
    def nu(self) -> int:
        return len(self.eB)

    @cached_property
    def _eD_symmetric(self) -> np.ndarray:
        # eD + eDᵀ, computed once per model for the gradient's pair term
        return self.eD + self.eD.T


def _query_rng(rng_seed, index: int) -> np.random.Generator:
    # Counter-based stream per canonical point: identical noise regardless of
    # evaluation order or concurrency.  rng_seed may be an int or a sequence
    # of ints (e.g. (noise seed, run seed, outer iteration, channel)).  Each
    # key part is split into little-endian 32-bit words exactly as
    # SeedSequence splits a list of ints, so the stream equals
    # default_rng(key + [index]) without its slower coercion of a list.
    parts = list(rng_seed) if isinstance(rng_seed, (tuple, list)) else [rng_seed]
    words = []
    for part in parts + [index]:
        part = int(part)
        if part < 0:
            raise ValueError(f"noise key parts must be non-negative, got {part}")
        while True:
            words.append(part & 0xFFFFFFFF)
            part >>= 32
            if not part:
                break
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def estimate_coefficients(
    oracle,
    schedule: list[QueryPoint],
    noise: NoiseLevels | None = None,
    rng_seed: int = 0,
    max_workers: int | None = None,
    theta0=None,
) -> SurrogateModel:
    """Combine (optionally noisy) schedule energies into a SurrogateModel.

    ``oracle`` maps a shift vector to an energy; an object exposing
    ``schedule_energies(points)`` is used batched.  Each raw query is
    perturbed by an independent zero-mean Gaussian whose std is the class
    level from ``noise``; the noise stream is keyed by (rng_seed, canonical
    point index), so concurrent dispatch cannot change the result.  Variance
    fields sum the raw-query variances per combined coefficient.
    """
    nu = max((axis for p in schedule for axis in p.axes), default=-1) + 1
    if len(schedule) != 2 * nu * nu + nu + 1:
        raise ValueError(
            f"schedule with {len(schedule)} points does not match any full "
            f"canonical schedule (nearest parameter count {nu})"
        )
    if len({p.index for p in schedule}) != len(schedule):
        raise ValueError("schedule contains duplicate query-point indices")
    values = _raw_energies(oracle, schedule, nu, max_workers)
    sigmas = {
        kind: 0.0 if noise is None else noise.for_kind(kind)
        for kind in QueryPoint._SHIFTS
    }
    # Group positions and axes by kind; every coefficient is then one fixed
    # combination of its own queries, so a permuted schedule assembles (and
    # rounds) bit-identically to the straight one.
    groups = {kind: ([], []) for kind in QueryPoint._SHIFTS}
    for position, point in enumerate(schedule):
        positions, axes = groups[point.kind]
        positions.append(position)
        axes.append(point.axes)
        sigma = sigmas[point.kind]
        if sigma > 0.0:
            values[position] += sigma * _query_rng(rng_seed, point.index).standard_normal()

    def scattered(kind, shape):
        positions, axes = groups[kind]
        index = np.array(axes, dtype=np.intp).reshape(-1, len(shape))
        out = np.zeros(shape)
        out[tuple(index.T)] = values[positions]
        return out

    eA = float(values[groups["A"][0][0]])
    single, pair = (nu,), (nu, nu)
    eB = scattered("B+", single) - scattered("B-", single)
    eC = scattered("C", single)
    eD = (
        (scattered("D++", pair) + scattered("D--", pair)) - scattered("D-+", pair)
    ) - scattered("D+-", pair)

    if noise is None:
        varA, varB, varC, varD = 0.0, None, None, None
    else:
        varA = noise.sigma_a**2
        varB = np.full(nu, 2.0 * noise.sigma_b**2)
        varC = np.full(nu, noise.sigma_c**2)
        varD = np.triu(np.full((nu, nu), 4.0 * noise.sigma_d**2), 1)

    if theta0 is None:
        theta0 = getattr(oracle, "theta0", None)
    if theta0 is None:
        theta0 = np.zeros(nu)
    return SurrogateModel(theta0, eA, eB, eC, eD, varA, varB, varC, varD)


def _raw_energies(oracle, schedule, nu, max_workers) -> np.ndarray:
    batched = getattr(oracle, "schedule_energies", None)

    def pointwise(point):
        try:
            return float(oracle(point.shift(nu)))
        except Exception as exc:
            raise RuntimeError(
                f"oracle failed at query point {point.index} "
                f"({point.kind}, axes {point.axes}): {exc}"
            ) from exc

    def evaluate(points):
        if batched is not None:
            return np.asarray(batched(points), dtype=float)
        return np.array([pointwise(p) for p in points])

    if max_workers is None or max_workers <= 1 or len(schedule) < 2:
        return evaluate(list(schedule))
    chunks = np.array_split(np.arange(len(schedule)), max_workers)
    out = np.empty(len(schedule))
    with ThreadPoolExecutor(max_workers=max_workers) as pool:
        futures = [
            (chunk, pool.submit(evaluate, [schedule[i] for i in chunk]))
            for chunk in chunks
            if len(chunk)
        ]
        for chunk, future in futures:
            out[chunk] = future.result()
    return out


class CircuitOracle:
    """Energy oracle E(θ₀ + shift) with a batched schedule route.

    The batch route stores the prefix state before every gate and the
    Hamiltonian conjugated backward through the suffix gates, so a point
    that modifies axes (k, l) costs two small matvecs instead of a full
    circuit evaluation.  Values agree with the pointwise route to rounding;
    above dimension 128 only the pointwise route is used.
    """

    def __init__(self, circuit: AnsatzCircuit, h):
        if h.num_qubits != circuit.num_qubits:
            raise ValueError(
                f"Hamiltonian on {h.num_qubits} qubits does not match "
                f"{circuit.num_qubits}-qubit circuit"
            )
        self.circuit = circuit
        self.h = h
        self.theta0 = np.array(circuit.theta_ref)
        dim = 2**circuit.num_qubits
        nu = circuit.num_parameters
        self._fast = (
            dim <= _FAST_ORACLE_DIM and nu * dim * dim * 16 <= _FAST_ORACLE_BYTES
        )
        self._cache = None
        # concurrent schedule_energies chunks share one lazily built cache
        self._cache_lock = threading.Lock()

    def __call__(self, shift) -> float:
        return energy(self.circuit, shift, self.h)

    def _build_cache(self):
        circuit, h = self.circuit, self.h
        nu = circuit.num_parameters
        dim = 2**circuit.num_qubits
        angles = circuit.theta_ref
        prefix = np.empty((nu + 1, dim), dtype=np.complex128)
        prefix[0] = zero_state(circuit.num_qubits).amplitudes
        for k, generator in enumerate(circuit.generators):
            prefix[k + 1] = _apply_rotation(prefix[k], generator.letters, angles[k])
        hmat = hamiltonian_matrix(h, max_qubits=circuit.num_qubits)
        conjugated = np.empty((nu, dim, dim), dtype=np.complex128)
        conjugated[nu - 1] = hmat
        for k in range(nu - 1, 0, -1):
            conjugated[k - 1] = self._conjugate(
                conjugated[k], circuit.generators[k].letters, angles[k]
            )
        self._cache = (prefix, conjugated)

    @staticmethod
    def _conjugate(matrix, letters, angle):
        # U† M U for U = cos(θ/2)·Id - i sin(θ/2)·P, using P's permutation form.
        from .simulator import _pauli_kernel

        src, phase = _pauli_kernel(letters)
        c = np.cos(0.5 * angle)
        s = np.sin(0.5 * angle)
        pm = phase[:, None] * matrix[src, :]
        mp = matrix[:, src] * phase[src][None, :]
        return c * c * matrix + s * s * (phase[:, None] * mp[src, :]) + 1j * c * s * (
            pm - mp
        )

    def schedule_energies(self, points: list[QueryPoint]) -> np.ndarray:
        if not self._fast:
            nu = self.circuit.num_parameters
            return np.array([self(p.shift(nu)) for p in points])
        with self._cache_lock:
            if self._cache is None:
                self._build_cache()
        prefix, conjugated = self._cache
        circuit = self.circuit
        angles = circuit.theta_ref
        nu = circuit.num_parameters

        needed_axes = sorted({p.axes[0] for p in points if p.kind in ("B+", "B-", "C")})
        singles: dict[tuple[int, float], float] = {}
        for k in needed_axes:
            pre = prefix[k]
            pk = _apply_pauli(pre, circuit.generators[k].letters)
            v1 = conjugated[k] @ pre
            v2 = conjugated[k] @ pk
            zz = float(np.real(np.vdot(pre, v1)))
            pp = float(np.real(np.vdot(pk, v2)))
            cross = float(np.imag(np.vdot(pre, v2)))
            for s in (HALF_PI, -HALF_PI, np.pi):
                half = 0.5 * (angles[k] + s)
                cs, sn = np.cos(half), np.sin(half)
                singles[(k, s)] = cs * cs * zz + sn * sn * pp + 2.0 * cs * sn * cross

        pair_axes = sorted({p.axes for p in points if p.kind.startswith("D")})
        first_axes = sorted({axes[0] for axes in pair_axes})
        pairs: dict[tuple[int, int, float, float], float] = {}
        for k in first_axes:
            partners = [axes[1] for axes in pair_axes if axes[0] == k]
            last = max(partners)
            pre = prefix[k]
            pk = _apply_pauli(pre, circuit.generators[k].letters)
            for sk in (HALF_PI, -HALF_PI):
                half = 0.5 * (angles[k] + sk)
                z = np.cos(half) * pre - 1j * np.sin(half) * pk
                for l in range(k + 1, last + 1):
                    letters = circuit.generators[l].letters
                    pz = _apply_pauli(z, letters)
                    if l in partners:
                        v1 = conjugated[l] @ z
                        v2 = conjugated[l] @ pz
                        zz = float(np.real(np.vdot(z, v1)))
                        pp = float(np.real(np.vdot(pz, v2)))
                        cross = float(np.imag(np.vdot(z, v2)))
                        for sl in (HALF_PI, -HALF_PI):
                            h2 = 0.5 * (angles[l] + sl)
                            cs, sn = np.cos(h2), np.sin(h2)
                            pairs[(k, l, sk, sl)] = (
                                cs * cs * zz + sn * sn * pp + 2.0 * cs * sn * cross
                            )
                    h0 = 0.5 * angles[l]
                    z = np.cos(h0) * z - 1j * np.sin(h0) * pz

        base = None
        out = np.empty(len(points))
        sign = {"D++": (1, 1), "D--": (-1, -1), "D-+": (-1, 1), "D+-": (1, -1)}
        for position, point in enumerate(points):
            if point.kind == "A":
                if base is None:
                    psi = prefix[nu]
                    # conjugated[nu-1] is the bare Hamiltonian matrix.
                    base = float(np.real(np.vdot(psi, conjugated[nu - 1] @ psi)))
                out[position] = base
            elif point.kind in ("B+", "B-"):
                s = HALF_PI if point.kind == "B+" else -HALF_PI
                out[position] = singles[(point.axes[0], s)]
            elif point.kind == "C":
                out[position] = singles[(point.axes[0], np.pi)]
            else:
                k, l = point.axes
                sk, sl = sign[point.kind]
                out[position] = pairs[(k, l, sk * HALF_PI, sl * HALF_PI)]
        return out


@dataclass(frozen=True)
class MonomialBasis:
    """Cached per-axis Fourier components and products for one θ.

    Holds a, b, c and their derivatives per axis, the full product
    A = ∏ a(θₖ), and prefix/suffix partial products of a so that the
    leave-one-out product ∏_{j≠k} a(θⱼ) is prefix[k]·suffix[k] without
    any division.
    """

    theta: np.ndarray
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    da: np.ndarray
    db: np.ndarray
    dc: np.ndarray
    full_product: float
    prefix: np.ndarray
    suffix: np.ndarray

    @classmethod
    def from_theta(cls, theta) -> "MonomialBasis":
        theta = np.asarray(theta, dtype=float)
        cos = np.cos(theta)
        sin = np.sin(theta)
        a = 0.5 * (1.0 + cos)
        b = 0.5 * sin
        c = 0.5 * (1.0 - cos)
        da = -b
        db = 0.5 * cos
        dc = b
        nu = len(theta)
        prefix = np.empty(nu)
        suffix = np.empty(nu)
        prefix[0] = 1.0
        if nu > 1:
            prefix[1:] = np.cumprod(a[:-1])
        suffix[nu - 1] = 1.0
        if nu > 1:
            suffix[:-1] = np.cumprod(a[:0:-1])[::-1]
        return cls(theta, a, b, c, da, db, dc, float(np.prod(a)), prefix, suffix)

    def leave_one_out(self) -> np.ndarray:
        """∏_{j≠k} a(θⱼ) for every k, division-free."""
        return self.prefix * self.suffix


def _check_length(model: SurrogateModel, theta) -> np.ndarray:
    theta = np.asarray(theta, dtype=float)
    if theta.shape != (model.nu,):
        raise ValueError(
            f"expected parameter vector of length {model.nu}, got shape {theta.shape}"
        )
    return theta


def eval_energy(model: SurrogateModel, theta) -> float:
    """Value of the truncated series at θ (relative to θ₀).

    Two routes, selected by the input.  Inside the trust region
    ‖θ‖∞ < π/2, where every a(θₖ) ≥ 1/2, the closed form
    A·(eA + u·eB + w·eC + uᵀ·eD·u) with u = b/a, w = c/a and A = ∏ a(θₖ)
    is used; at θ = 0 it returns eA exactly.  Outside the region (the
    schedule shifts ±π/2 and π, for instance) the division-free route
    takes every leave-out product from partial products of a, so axes with
    a(θₖ) = 0 (θₖ = ±π) never divide.  The routes agree to rounding where
    both apply, so the value is continuous across ‖θ‖∞ = π/2.
    """
    theta = _check_length(model, theta)
    if np.abs(theta).max() >= HALF_PI:
        return _division_free_energy(model, theta)
    full_product, u, w, _ = _trust_region_ratios(theta)
    value = (
        model.eA
        + np.dot(u, model.eB)
        + np.dot(w, model.eC)
        + np.dot(u, model.eD @ u)
    )
    return float(full_product * value)


def _division_free_energy(model: SurrogateModel, theta: np.ndarray) -> float:
    basis = MonomialBasis.from_theta(theta)
    nu = model.nu
    value = basis.full_product * model.eA
    loo = basis.leave_one_out()
    value += float(np.dot(loo, basis.b * model.eB + basis.c * model.eC))
    # between[k, l] = ∏_{k<j<l} a(θⱼ): row k of one 2-D cumprod over the a's
    # right of axis k (ones elsewhere), shifted one column to the right.
    cols = np.arange(nu - 1)
    between = np.ones((nu, nu))
    between[:, 1:] = np.cumprod(
        np.where(cols[None, :] > np.arange(nu)[:, None], basis.a[None, :-1], 1.0),
        axis=1,
    )
    pair = basis.prefix[:, None] * between * basis.suffix[None, :]
    value += float(np.dot(basis.b, (pair * model.eD) @ basis.b))
    return float(value)


def _trust_region_ratios(theta: np.ndarray):
    """A = ∏ a(θₖ) and the ratios u = b/a, w = c/a, p = b'/a.

    Only stable for |θₖ| < π/2, where a(θₖ) ≥ 1/2.
    """
    cos = np.cos(theta)
    a = 0.5 * (1.0 + cos)
    u = 0.5 * np.sin(theta) / a
    w = 0.5 * (1.0 - cos) / a
    p = 0.5 * cos / a
    return float(a.prod()), u, w, p


def _fast_path_ratios(model: SurrogateModel, theta):
    theta = _check_length(model, theta)
    norm = np.abs(theta).max()
    if norm >= HALF_PI:
        raise TrustRegionError(
            f"‖θ‖∞ = {norm:.6g} is outside the |θₖ| < π/2 "
            "trust region; a(θₖ) may vanish"
        )
    return _trust_region_ratios(theta)


def eval_gradient(model: SurrogateModel, theta) -> np.ndarray:
    """Exact gradient of the truncated series, O(ν²) per call.

    Only valid inside the |θₖ| < π/2 trust region where a(θₖ) ≥ 1/2 keeps
    the shared-product division stable; at θ=0 the result is exactly eB/2,
    the parameter-shift gradient.
    """
    full_product, u, w, p = _fast_path_ratios(model, theta)
    r = model._eD_symmetric @ u
    s_b = float(np.dot(u, model.eB))
    s_c = float(np.dot(w, model.eC))
    s_d = 0.5 * float(np.dot(u, r))
    grad = full_product * (
        -u * model.eA
        + p * model.eB
        - u * (s_b - u * model.eB)
        + u * model.eC
        - u * (s_c - w * model.eC)
        + p * r
        - u * (s_d - u * r)
    )
    return grad


def eval_gradient_reference(model: SurrogateModel, theta) -> np.ndarray:
    """Division-free gradient via direct leave-out products (slow test path).

    Valid everywhere, including the |θₖ| = π/2 boundary; O(ν⁴) work, meant
    for small ν cross-checks of the fast path.
    """
    theta = _check_length(model, theta)
    basis = MonomialBasis.from_theta(theta)
    nu = model.nu
    a, b, c = basis.a, basis.b, basis.c
    da, db, dc = basis.da, basis.db, basis.dc

    def prod_excluding(*skip):
        mask = np.ones(nu, dtype=bool)
        mask[list(skip)] = False
        return float(np.prod(a[mask]))

    grad = np.zeros(nu)
    for m in range(nu):
        g = da[m] * prod_excluding(m) * model.eA
        for k in range(nu):
            if k == m:
                g += db[m] * prod_excluding(m) * model.eB[m]
                g += dc[m] * prod_excluding(m) * model.eC[m]
            else:
                g += b[k] * da[m] * prod_excluding(k, m) * model.eB[k]
                g += c[k] * da[m] * prod_excluding(k, m) * model.eC[k]
        for k in range(nu):
            for l in range(k + 1, nu):
                coeff = model.eD[k, l]
                if coeff == 0.0:
                    continue
                if m == k:
                    g += db[m] * b[l] * prod_excluding(k, l) * coeff
                elif m == l:
                    g += b[k] * db[m] * prod_excluding(k, l) * coeff
                else:
                    g += b[k] * b[l] * da[m] * prod_excluding(k, l, m) * coeff
        grad[m] = g
    return grad


def gradient_variance(model: SurrogateModel, theta) -> np.ndarray:
    """Linear error propagation: var[∂ₘÊ](θ) = Σ (∂monomial/∂θₘ)²·var(coeff).

    The full sum over all coefficient classes, not only the leading eB term;
    at θ=0 it reduces to varBₘ/4.  Same trust region as ``eval_gradient``.
    """
    by_class = gradient_variance_by_class(model, theta)
    return by_class["A"] + by_class["B"] + by_class["C"] + by_class["D"]


def gradient_variance_by_class(model: SurrogateModel, theta) -> dict[str, np.ndarray]:
    """Per-class contributions to the gradient variance (diagnostics)."""
    full_product, u, w, p = _fast_path_ratios(model, theta)
    a_sq = full_product**2
    u2 = u * u
    vdsym = model.varD + model.varD.T
    rv = vdsym @ u2
    vb_total = float(np.dot(u2, model.varB))
    vc_total = float(np.dot(w * w, model.varC))
    vd_total = 0.5 * float(np.dot(u2, rv))
    return {
        "A": a_sq * u2 * model.varA,
        "B": a_sq * (p * p * model.varB + u2 * (vb_total - u2 * model.varB)),
        "C": a_sq * (u2 * model.varC + u2 * (vc_total - w * w * model.varC)),
        "D": a_sq * (p * p * rv + u2 * (vd_total - u2 * rv)),
    }


def extract_gradient_hessian(model: SurrogateModel) -> tuple[np.ndarray, np.ndarray]:
    """Gradient and Hessian of the true energy at θ₀ read off the coefficients.

    gₘ = eBₘ/2 (the parameter-shift rule), Hₘₘ = (eCₘ - eA)/2, and
    Hₘₙ = eDₘₙ/4 off the diagonal, symmetrized.
    """
    grad = 0.5 * model.eB
    hessian = 0.25 * (model.eD + model.eD.T)
    np.fill_diagonal(hessian, 0.5 * (model.eC - model.eA))
    return grad, hessian


@dataclass(frozen=True)
class SymmetryReport:
    max_asymmetry: float
    samples: int
    radius: float
    eB_max: float


def symmetry_report(
    model: SurrogateModel,
    samples: int,
    radius: float,
    rng_seed: int = 0,
    stationarity_threshold: float | None = None,
) -> SymmetryReport:
    """Max |Ê(θ) - Ê(-θ)| over sampled θ in the ∞-ball of the given radius.

    Only the odd eB words break reflection symmetry, so a model with eB = 0
    reports 0 to rounding.  Requires a (near-)stationary model: ‖eB‖∞ must
    not exceed the supplied threshold, defaulting to 10× the largest
    per-coefficient std, or 1e-8 for a noiseless model.
    """
    eb_max = float(np.max(np.abs(model.eB))) if model.nu else 0.0
    if stationarity_threshold is None:
        largest_std = float(np.sqrt(np.max(model.varB))) if model.nu else 0.0
        stationarity_threshold = 10.0 * largest_std if largest_std > 0.0 else 1e-8
    if eb_max > stationarity_threshold:
        raise ValueError(
            f"model is not stationary: ‖eB‖∞ = {eb_max:.3g} exceeds "
            f"threshold {stationarity_threshold:.3g}"
        )
    rng = np.random.default_rng(rng_seed)
    worst = 0.0
    for _ in range(samples):
        theta = rng.uniform(-radius, radius, model.nu)
        worst = max(worst, abs(eval_energy(model, theta) - eval_energy(model, -theta)))
    return SymmetryReport(worst, samples, radius, eb_max)


class FullTrigExpansion:
    """Untruncated 3^ν expansion of a circuit energy (test oracle, ν ≤ 8).

    Every word over {a, b, c}^ν gets its exact coefficient from simulator
    queries at the matching {0, ±π/2, π} shift pattern (b axes expand into
    signed ±π/2 pairs), after which evaluation at any θ is a cheap weighted
    monomial sum that must reproduce the simulator energy to rounding.
    """

    def __init__(self, circuit: AnsatzCircuit, h):
        nu = circuit.num_parameters
        if nu > 8:
            raise ValueError(f"full expansion limited to ν <= 8, got ν={nu}")
        self.nu = nu
        words = np.array(list(itertools.product((0, 1, 2), repeat=nu)), dtype=np.int8)
        coeffs = np.empty(len(words))
        for w_index, word in enumerate(words):
            b_axes = [k for k in range(nu) if word[k] == 1]
            base = np.where(word == 2, np.pi, 0.0).astype(float)
            total = 0.0
            for signs in itertools.product((1.0, -1.0), repeat=len(b_axes)):
                shift = base.copy()
                for axis, sign in zip(b_axes, signs):
                    shift[axis] = sign * HALF_PI
                total += float(np.prod(signs)) * energy(circuit, shift, h)
            coeffs[w_index] = total
        self.words = words
        self.coeffs = coeffs

    def energy(self, theta) -> float:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.nu,):
            raise ValueError(f"expected length {self.nu}, got shape {theta.shape}")
        cos = np.cos(theta)
        abc = np.stack([0.5 * (1 + cos), 0.5 * np.sin(theta), 0.5 * (1 - cos)])
        factors = abc[self.words, np.arange(self.nu)]
        return float(np.dot(np.prod(factors, axis=1), self.coeffs))


def brute_force_energy(circuit: AnsatzCircuit, h, theta) -> float:
    """Evaluate the untruncated 3^ν expansion at θ (rebuilds it; tests only)."""
    return FullTrigExpansion(circuit, h).energy(theta)


def model_to_json(model: SurrogateModel) -> str:
    """Checkpoint form: θ₀, coefficients, and variances; round-trips exactly."""
    payload = {
        "nu": model.nu,
        "theta0": model.theta0.tolist(),
        "eA": model.eA,
        "eB": model.eB.tolist(),
        "eC": model.eC.tolist(),
        "eD": model.eD.tolist(),
        "varA": model.varA,
        "varB": model.varB.tolist(),
        "varC": model.varC.tolist(),
        "varD": model.varD.tolist(),
    }
    return json.dumps(payload, indent=2)


def model_from_json(text: str) -> SurrogateModel:
    payload = json.loads(text)
    return SurrogateModel(
        np.asarray(payload["theta0"]),
        float(payload["eA"]),
        np.asarray(payload["eB"]),
        np.asarray(payload["eC"]),
        np.asarray(payload["eD"]),
        float(payload["varA"]),
        np.asarray(payload["varB"]),
        np.asarray(payload["varC"]),
        np.asarray(payload["varD"]),
    )
