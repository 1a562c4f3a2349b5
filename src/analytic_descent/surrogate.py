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

The queries are the fixed schedule `query_schedule(ν)`; a point's index is
its position there, and `estimate_coefficients` reads each coefficient's
queries from their positions.  It accepts any callable `shift ↦ energy`; the
`CircuitOracle` here answers it from one tangent sweep at θ₀ and keeps the
sweep's ψ, tangents, gradient and pair block as attributes, which the
optimizer reads for its noise levels and first metric.  Every gate is
exp(-iθP/2) with P² = I, so shifting axis k by σ gives the state
cos(σ/2)·ψ + 2·sin(σ/2)·t_k exactly (t_k = ∂ψ/∂θ_k), and each unshifted
or single-axis energy is a quadratic form in (ψ, t_k).  The
pair points enter the model only through eD_kl = ((E₊₊ + E₋₋) − E₋₊) − E₊₋,
which is 4·∂²E/∂θ_k∂θ_l, the shift-rule Hessian (Mari, Bromley & Killoran,
arXiv 2008.06517).  The oracle takes it from the same sweep as
8·(Re⟨Hψ|t_kl⟩ + Re⟨t_k|H|t_l⟩), t_kl = ∂²ψ/∂θ_k∂θ_l, the first term from
one adjoint row per gate, so no pair state is prepared; values agree with
the pointwise route to rounding.

Inside the trust region ‖θ‖∞ < π/2 the model is evaluated in the
half-angle tangents t = tan(θ/2), |tₖ| < 1: there a = 1/(1+t²), b/a = t and
c/a = t², so Ê(θ) = S/∏(1+tₖ²) with S = eA + t·eB + t²·eC + tᵀ·eD·t, a
closed form of one matrix-vector product that its gradient and variance
share.  Outside it (the schedule shifts ±π/2 and π themselves)
`eval_energy` switches to a division-free route, whose leave-out products
of a are products of prefix and suffix products, so an axis at θₖ = ±π,
where a vanishes, is never divided by; the gradient and variance routines
are declared only inside the region.  Every evaluator refuses a θ with a
NaN or ±inf entry with a ``ValueError``.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Sequence
from dataclasses import dataclass, fields
from functools import cache, cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence

from .ansatz import AnsatzCircuit, _frozen_array, energy
from .simulator import _apply_hamiltonian, _real_overlaps, _state_tangents_and_hessian

HALF_PI = 0.5 * np.pi


class TrustRegionError(ValueError):
    """θ left the |θₖ| < π/2 region where the half-angle closed form is declared."""


@dataclass(frozen=True)
class QueryPoint:
    """One energy query of the estimation schedule.

    ``index`` is the point's position in `query_schedule` and keys the
    query's noise stream; ``kind`` names the coefficient class the query
    serves (A, B+, B-, C, D++, D--, D-+, D+-); ``axes`` lists the shifted
    axes, one per shift of the kind, distinct and non-negative.
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

    def __post_init__(self):
        shifts = self._SHIFTS.get(self.kind)
        if shifts is None:
            raise ValueError(f"unknown query kind {self.kind!r}; one of {list(self._SHIFTS)}")
        if len(self.axes) != len(shifts):
            raise ValueError(
                f"{self.kind} points shift {len(shifts)} axis(es), got axes {self.axes}"
            )
        if self.axes and (min(self.axes) < 0 or len(set(self.axes)) < len(self.axes)):
            raise ValueError(
                f"{self.kind} points shift distinct non-negative axes, got axes {self.axes}"
            )

    def _check_axes(self, nu: int) -> None:
        """Refuse this point if it shifts an axis a ν-parameter circuit lacks."""
        if self.axes and max(self.axes) >= nu:
            raise ValueError(
                f"query point {self.index} ({self.kind}, axes {self.axes}) "
                f"shifts an axis the {nu}-parameter circuit lacks"
            )

    def shift(self, nu: int) -> np.ndarray:
        """Dense ν-vector form; at most 2 nonzero entries from {±π/2, π}.
        A point on an axis the ν-vector lacks is refused."""
        self._check_axes(nu)
        vec = np.zeros(nu)
        for axis, value in zip(self.axes, self._SHIFTS[self.kind]):
            vec[axis] = value
        return vec


def query_schedule(nu: int) -> tuple[QueryPoint, ...]:
    """Canonical estimation schedule: exactly 2ν²+ν+1 distinct points.

    Order: the unshifted point, then (B+, B-) per axis, then C per axis,
    then the four pair points (++, --, -+, +-) per lexicographic pair k<l.
    Each point's index is its position.  Built once per ν and process:
    every call returns the same immutable tuple.
    """
    if nu < 1:
        raise ValueError(f"parameter count must be >= 1, got {nu}")
    return _canonical_schedule(operator.index(nu))  # an int, as range() takes


@cache
def _canonical_schedule(nu: int) -> tuple[QueryPoint, ...]:
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
    return tuple(points)


@dataclass(frozen=True)
class NoiseLevels:
    """Per-raw-query Gaussian standard deviations by coefficient class.

    This is what the shot-noise precision policy resolves to; the B class
    gets its own level because its coefficient combines two raw queries.
    Every level is finite and non-negative.
    """

    sigma_a: float
    sigma_b: float
    sigma_c: float
    sigma_d: float

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not (np.isfinite(value) and value >= 0.0):
                raise ValueError(f"{f.name} must be a finite std >= 0, got {value}")


@dataclass(frozen=True, eq=False)
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
        if nu < 1:
            raise ValueError(f"parameter count must be >= 1, got {nu}")
        for name in ("theta0", "eB", "eC", "eD", "varB", "varC", "varD"):
            shape = (nu, nu) if name.endswith("D") else (nu,)
            value = getattr(self, name)
            value = np.zeros(shape) if value is None else value
            object.__setattr__(self, name, _frozen_array(value, shape, name))
        for name in ("eD", "varD"):
            if np.any(np.tril(getattr(self, name)) != 0.0):
                raise ValueError(f"{name} must be strictly upper triangular")
        for name in ("eA", "varA"):
            value = float(getattr(self, name))
            if not np.isfinite(value):
                raise ValueError("non-finite scalar coefficient")
            object.__setattr__(self, name, value)

    @property
    def nu(self) -> int:
        return len(self.eB)

    # ½·eB and ½·(eD + eDᵀ), computed once per model for the gradient.  Halving
    # is exact, so the gradient rounds as if it halved its own sums.
    @cached_property
    def _half_eB(self) -> np.ndarray:
        return 0.5 * self.eB

    @cached_property
    def _half_eD_symmetric(self) -> np.ndarray:
        return 0.5 * (self.eD + self.eD.T)


# SeedSequence's hash constants (numpy.random.bit_generator).
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4


def _key_words(parts) -> list[int]:
    # Each part as little-endian 32-bit words, exactly as SeedSequence splits
    # a list of ints (0 is one word).
    words = []
    for part in parts:
        try:
            part = operator.index(part)
        except TypeError:
            raise ValueError(f"noise key parts must be integers, got {part}") from None
        if part < 0:
            raise ValueError(f"noise key parts must be non-negative, got {part}")
        while True:
            words.append(part & _MASK32)
            part >>= 32
            if not part:
                break
    return words


def _key_parts(rng_seed) -> list:
    return list(rng_seed) if isinstance(rng_seed, (tuple, list)) else [rng_seed]


class _SeedState(ISeedSequence):
    """Seed source that hands PCG64 one row of `_seed_states`."""

    def __init__(self, state: np.ndarray):
        self.state = state

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 4 or dtype is not np.uint64:
            raise ValueError("a precomputed row is generate_state(4, np.uint64)")
        return self.state


def _query_rng(rng_seed, index: int, state=None) -> np.random.Generator:
    """The noise generator of one query, keyed by (rng_seed, canonical index).

    Counter-based stream per canonical point: identical noise regardless of
    evaluation order or concurrency.  ``rng_seed`` is an int or a tuple of
    ints (e.g. (noise seed, run seed, outer iteration, channel)); every part
    must be a non-negative integer.  Without ``state`` this is the reference
    ``default_rng(list(key) + [index])``, seeded from the key's 32-bit words.
    ``state`` is the query's row of ``_seed_states(rng_seed, indices)``: the
    same PCG64 seed, without hashing the key again for every query.  An
    estimation draws its noise with ``_first_normals``, bit-identical to this
    generator's first ``standard_normal()``; it builds one only for the rows
    whose draw leaves the ziggurat's fast path.
    """
    if state is not None:
        return np.random.Generator(np.random.PCG64(_SeedState(state)))
    words = _key_words(_key_parts(rng_seed) + [index])
    return np.random.default_rng(np.array(words, dtype=np.uint32))


def _seed_states(rng_seed, indices) -> np.ndarray:
    """Row i is ``SeedSequence(key + [indices[i]]).generate_state(4, np.uint64)``.

    The seed words of ``default_rng(list(key) + [index])`` for every index in
    one batch.  Indices are schedule positions, one 32-bit word each: a
    non-integer or negative index is refused, and so is one of 2**32 or more.
    """
    key = [np.array([word], dtype=np.uint32) for word in _key_words(_key_parts(rng_seed))]
    index = np.asarray(indices)
    if index.size and index.dtype.kind not in "iu":
        _key_words(indices)  # refuses the first non-integer index, as for a key
    index = index.astype(np.int64)
    if index.size and index.min() < 0:
        raise ValueError(f"noise key parts must be non-negative, got {index.min()}")
    if index.size and index.max() > _MASK32:
        raise ValueError(f"noise indices must be below 2**32, got {index.max()}")
    return _generate_state(key + [index.astype(np.uint32)])


def _generate_state(entropy: list[np.ndarray]) -> np.ndarray:
    # SeedSequence's entropy mixing and generate_state(4, np.uint64), step for
    # step, on uint32 columns: each entropy word is an array of shape (1,)
    # (shared by every row) or (rows,).  The hash constants evolve apart from
    # the data, so all rows take the same steps.
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * hash_const
        return value ^ value >> 16

    def mix(x, y):
        result = x * _MIX_MULT_L - y * _MIX_MULT_R
        return result ^ result >> 16

    zero = np.zeros(1, dtype=np.uint32)
    padded = entropy + [zero] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    # Every pool word has mixed with every entropy word, so it has all rows.
    state = np.empty((len(pool[0]), 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i in range(2 * _POOL_SIZE):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * hash_const
        state[:, i] = value ^ value >> 16
    return state.astype("<u4").view("<u8").astype(np.uint64)


# PCG64's 128-bit multiplier (O'Neill, HMC-CS-2014-0905).
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK64 = (1 << 64) - 1
_MASK52 = (1 << 52) - 1


def _mul_high(a: np.ndarray, b: int) -> np.ndarray:
    # High 64 bits of each 128-bit product a·b, from 32-bit halves.
    a_low, a_high = a & _MASK32, a >> 32
    b_low, b_high = b & _MASK32, b >> 32
    low = a_low * b_low
    mid_a = a_high * b_low
    mid_b = a_low * b_high
    carry = ((low >> 32) + (mid_a & _MASK32) + (mid_b & _MASK32)) >> 32
    return a_high * b_high + (mid_a >> 32) + (mid_b >> 32) + carry


def _add128(high, low, add_high, add_low):
    low = low + add_low
    return high + add_high + (low < add_low), low


def _pcg_step(high, low, inc_high, inc_low):
    # state·MULT + inc mod 2**128, on (high, low) uint64 limbs.
    m_high, m_low = _PCG_MULT >> 64, _PCG_MULT & _MASK64
    product_high = _mul_high(low, m_low) + low * m_high + high * m_low
    return _add128(product_high, low * m_low, inc_high, inc_low)


def _first_normals(rng_seed, indices, states: np.ndarray) -> np.ndarray:
    """``_query_rng(rng_seed, index, state).standard_normal()`` for every row at once.

    ``states`` holds the rows of ``_seed_states(rng_seed, indices)``.  Each
    row seeds PCG64 as numpy does (initial state row[0]:row[1], increment
    2·row[2]:row[3] + 1, two steps), takes one more step and the XSL-RR
    output, all in uint64 arithmetic on 128-bit limb pairs.  That output
    goes through the fast path of numpy's ziggurat (layer = its low byte,
    sign = bit 8, magnitude = the 52 bits above).  The ~1.5% of rows whose
    output leaves the fast path are drawn by their own ``_query_rng``; every
    draw is bit-identical to that generator's.
    """
    wi, ki = _ziggurat_tables()
    init_high, init_low, seq_high, seq_low = states.T
    inc_high = (seq_high << 1) | (seq_low >> 63)
    inc_low = (seq_low << 1) | 1
    # Seeding steps from state 0 (giving inc), adds the initial state and
    # steps again; the first output takes one more step.
    high, low = _add128(inc_high, inc_low, init_high, init_low)
    for _ in range(2):
        high, low = _pcg_step(high, low, inc_high, inc_low)
    rotation = high >> 58
    mixed = high ^ low
    output = (mixed >> rotation) | (mixed << ((64 - rotation) & 63))
    layer = (output & 0xFF).astype(np.intp)
    magnitude = (output >> 9) & _MASK52
    draws = magnitude.astype(np.float64) * wi[layer]
    draws = np.where((output >> 8) & 1, -draws, draws)
    for row in np.flatnonzero(magnitude >= ki[layer]):
        draws[row] = _query_rng(rng_seed, indices[row], states[row]).standard_normal()
    return draws


@cache
def _ziggurat_tables() -> tuple[np.ndarray, np.ndarray]:
    """The installed numpy's ziggurat layer widths wi and fast-path bounds ki.

    A PCG64 whose next output is (1 << 9) | layer draws wi[layer] exactly
    (magnitude 1, sign +).  Layer i's fast path takes magnitudes below
    2**52·wi[i-1]/wi[i] (layer 0: 2**52·wi[255]/wi[0]; layer 1: none).  Each
    bound here sits a relative 1e-9 below that, and a probe one under it
    must draw ±magnitude·wi from exactly one output.
    """
    inverse = pow(_PCG_MULT, -1, 1 << 128)
    bits = np.random.PCG64()
    normal = np.random.Generator(bits).standard_normal

    def draw(output: int) -> tuple[float, bool]:
        # The draw from a state whose next output is ``output`` (high limb 0,
        # so XSL-RR returns the low one) and whose output after that is 0,
        # which layer 1's test accepts; and whether it took one output only.
        inc = -output * _PCG_MULT % (1 << 128)
        state = {"state": (output - inc) * inverse % (1 << 128), "inc": inc}
        bits.state = {"bit_generator": "PCG64", "state": state, "has_uint32": 0, "uinteger": 0}
        value = normal()
        return value, bits.state["state"]["state"] == output

    wi = np.array([draw(1 << 9 | layer)[0] for layer in range(256)])
    ratio = np.concatenate([[wi[255] / wi[0], 0.0], wi[1:-1] / wi[2:]])
    ki = np.floor(2.0**52 * ratio * (1.0 - 1e-9)).astype(np.uint64)
    for layer in np.flatnonzero(ki):
        magnitude = int(ki[layer]) - 1
        if draw(magnitude << 9 | int(layer)) != (magnitude * wi[layer], True):
            raise RuntimeError(
                f"numpy {np.__version__}'s standard_normal leaves the ziggurat fast "
                f"path expected in layer {layer}"
            )
    wi.flags.writeable = ki.flags.writeable = False
    return wi, ki


def estimate_coefficients(
    oracle,
    schedule: Sequence[QueryPoint],
    noise: NoiseLevels | None = None,
    rng_seed: int | tuple[int, ...] = 0,
    max_workers: int | None = None,
) -> SurrogateModel:
    """Combine (optionally noisy) schedule energies into a SurrogateModel.

    ``oracle`` maps a shift vector to an energy; a ``CircuitOracle`` is
    evaluated batched and supplies eD from its sweep, to which the pair
    queries' noise is added as to measured pair energies.  ``schedule`` is
    ``query_schedule(ν)``, or a sequence equal to it point for point; each
    coefficient is read from the positions that schedule gives its queries.
    An oracle's ``theta0``, if it has one, must have the schedule's ν
    entries; that is checked before the first query.
    Each raw query is perturbed by an independent zero-mean Gaussian whose
    std is the class level from ``noise``.  Its draw is the first
    ``standard_normal()`` of ``default_rng(list(key) + [index])``, keyed by
    ``rng_seed`` (an int or a tuple of non-negative ints) and the point's
    index, which is its position.  The seeds and the draws are computed for
    all noisy queries in one batch, bit-identical to those generators; one
    is built only for a query whose draw leaves the ziggurat's fast path
    (about 1.5% of them).  Variance fields sum the raw-query variances per
    combined coefficient.  ``max_workers`` is accepted for compatibility and
    has no effect: the batched oracle is one vectorized build that threads
    have nothing to split in.
    """
    # 2ν²+ν+1 = n has the root ν = (√(8n−7) − 1)/4.
    nu = (math.isqrt(max(8 * len(schedule) - 7, 1)) - 1) // 4
    if nu < 1 or len(schedule) != 2 * nu * nu + nu + 1:
        raise ValueError(
            f"schedule with {len(schedule)} points does not match any full "
            "canonical schedule (2ν²+ν+1 points, ν >= 1)"
        )
    if tuple(schedule) != _canonical_schedule(nu):
        raise ValueError(f"schedule is not query_schedule({nu}) point for point")
    theta0 = getattr(oracle, "theta0", None)
    theta0 = np.zeros(nu) if theta0 is None else np.asarray(theta0, dtype=float)
    if theta0.shape != (nu,):
        raise ValueError(
            f"oracle has {theta0.size} parameters, but the schedule is for ν = {nu}"
        )

    values, pair_block = _raw_energies(oracle, schedule, nu)
    if noise is not None:
        counts = (1, 2 * nu, nu, 2 * nu * (nu - 1))
        sigma = np.repeat([noise.sigma_a, noise.sigma_b, noise.sigma_c, noise.sigma_d], counts)
        noisy = np.flatnonzero(sigma > 0.0)
        if noisy.size:
            draws = _first_normals(rng_seed, noisy, _seed_states(rng_seed, noisy))
            values[noisy] += sigma[noisy] * draws

    eA = float(values[0])
    eB = values[1 : 2 * nu + 1 : 2] - values[2 : 2 * nu + 1 : 2]
    eC = values[2 * nu + 1 : 3 * nu + 1]
    pp, mm, mp, pm = values[3 * nu + 1 :].reshape(-1, 4).T
    eD = np.zeros((nu, nu))
    eD[np.triu_indices(nu, 1)] = ((pp + mm) - mp) - pm
    if pair_block is not None:
        eD += pair_block

    if noise is None:
        varA, varB, varC, varD = 0.0, None, None, None
    else:
        varA = noise.sigma_a**2
        varB = np.full(nu, 2.0 * noise.sigma_b**2)
        varC = np.full(nu, noise.sigma_c**2)
        varD = np.triu(np.full((nu, nu), 4.0 * noise.sigma_d**2), 1)

    return SurrogateModel(theta0, eA, eB, eC, eD, varA, varB, varC, varD)


def _raw_energies(oracle, schedule, nu) -> tuple[np.ndarray, np.ndarray | None]:
    """Clean energies at the schedule's points, and the exact pair block.

    A ``CircuitOracle`` is asked for the unshifted and single-axis points,
    the first 3ν+1; its pair points stay 0 here, to carry their noise onto
    its eD.  A callable is queried at every point, and the block is None.
    """
    if isinstance(oracle, CircuitOracle):
        values = np.zeros(len(schedule))
        values[: 3 * nu + 1] = oracle.schedule_energies(schedule[: 3 * nu + 1])
        return values, oracle.pair_block

    def pointwise(point):
        try:
            return float(oracle(point.shift(nu)))
        except Exception as exc:
            raise RuntimeError(
                f"oracle failed at query point {point.index} "
                f"({point.kind}, axes {point.axes}): {exc}"
            ) from exc

    return np.array([pointwise(p) for p in schedule]), None


_KIND_INDEX = {kind: index for index, kind in enumerate(QueryPoint._SHIFTS)}
# cos(σ/2) and 2·sin(σ/2), the weights of ψ and tₖ in the state shifted by σ on
# axis k, for the unshifted and single-axis kinds (kind numbers 0 to 3).
_SINGLE_WEIGHTS = np.array(
    [
        (np.cos(0.5 * sum(shifts)), 2.0 * np.sin(0.5 * sum(shifts)))
        for shifts in QueryPoint._SHIFTS.values()
        if len(shifts) < 2
    ]
)


class CircuitOracle:
    """Energy oracle E(θ₀ + shift) with a batched schedule route.

    The batch route runs ``_state_tangents_and_hessian`` once at θ₀, at
    every register size, at construction; that sweep refuses an H on another
    register.  Its cache holds the unshifted and single-axis energies,
    quadratic forms in the 2×2 matrix Re⟨u|H|v⟩ over u, v ∈ (ψ, tₖ); a pair
    point asked of ``schedule_energies`` is prepared and measured on its own.
    The sweep's ``psi``, ``tangents`` tₖ = ∂ψ/∂θₖ, ``gradient`` 2·Re⟨tₖ|H|ψ⟩
    (``energy_gradient``'s) and ``pair_block``, the exact eD_kl =
    8·(Re⟨Hψ|t_kl⟩ + Re⟨t_k|H|t_l⟩), k < l, are its attributes.
    """

    def __init__(self, circuit: AnsatzCircuit, h):
        self.circuit = circuit
        self.h = h
        self.theta0 = np.array(circuit.theta_ref)
        self._build_cache()

    def __call__(self, shift) -> float:
        return energy(self.circuit, shift, self.h)

    def _build_cache(self):
        circuit, h = self.circuit, self.h
        nu = circuit.num_parameters
        psi, tangents, hessian, h_psi = _state_tangents_and_hessian(
            circuit, np.zeros(nu), h
        )
        g = _real_overlaps(tangents, h_psi)
        G = _real_overlaps(tangents, _apply_hamiltonian(tangents, h))
        # gram[k] is Re⟨u|H|v⟩ over u, v ∈ (ψ, t_k).
        gram = np.empty((nu, 2, 2))
        gram[:, 0, 0] = _real_overlaps(psi, h_psi)
        gram[:, 0, 1] = gram[:, 1, 0] = g
        gram[:, 1, 1] = np.diag(G)
        self._cache = np.einsum("si,kij,sj->sk", _SINGLE_WEIGHTS, gram, _SINGLE_WEIGHTS)
        self.pair_block = np.triu(8.0 * (hessian + G), 1)
        self.psi, self.tangents, self.gradient = psi, tangents, 2.0 * g

    def schedule_energies(self, points: Sequence[QueryPoint]) -> np.ndarray:
        """Energies at ``points``, in order; a point on an axis the circuit
        lacks is refused."""
        nu = len(self.theta0)
        values = np.empty(len(points))
        for position, point in enumerate(points):
            point._check_axes(nu)
            if len(point.axes) < 2:
                axis = point.axes[0] if point.axes else 0
                values[position] = self._cache[_KIND_INDEX[point.kind], axis]
            else:
                values[position] = self(point.shift(nu))
        return values


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
    ‖θ‖∞ < π/2 the closed form S/∏(1+tₖ²) in t = tan(θ/2), with
    S = eA + t·eB + t²·eC + tᵀ·eD·t, is used; at θ = 0 it returns eA
    exactly.  Outside the region (the schedule shifts ±π/2 and π, for
    instance) the division-free route takes every leave-out product from
    partial products of a, so axes with a(θₖ) = 0 (θₖ = ±π) never divide.
    The routes agree to rounding where both apply, so the value is
    continuous across ‖θ‖∞ = π/2.
    """
    try:
        t, q = _half_angle_tangents(model, theta)
    except TrustRegionError:
        return _division_free_energy(model, np.asarray(theta, dtype=float))
    bracket = model.eA + np.dot(t, model.eB + t * model.eC + model.eD @ t)
    return float(bracket / q.prod())


def _division_free_energy(model: SurrogateModel, theta: np.ndarray) -> float:
    cos = np.cos(theta)
    a, b, c = 0.5 * (1.0 + cos), 0.5 * np.sin(theta), 0.5 * (1.0 - cos)
    nu = model.nu
    # prefix[k] = ∏_{j<k} a(θⱼ) and suffix[k] = ∏_{j>k} a(θⱼ), so every
    # leave-out product is a product of partial products, never a quotient.
    prefix = np.ones(nu)
    prefix[1:] = np.cumprod(a[:-1])
    suffix = np.ones(nu)
    suffix[:-1] = np.cumprod(a[:0:-1])[::-1]
    value = float(np.prod(a)) * model.eA
    value += float(np.dot(prefix * suffix, b * model.eB + c * model.eC))
    # between[k, l] = ∏_{k<j<l} a(θⱼ): row k of one 2-D cumprod over the a's
    # right of axis k (ones elsewhere), shifted one column to the right.
    cols = np.arange(nu - 1)
    between = np.ones((nu, nu))
    between[:, 1:] = np.cumprod(
        np.where(cols[None, :] > np.arange(nu)[:, None], a[None, :-1], 1.0),
        axis=1,
    )
    pair = prefix[:, None] * between * suffix[None, :]
    value += float(np.dot(b, (pair * model.eD) @ b))
    return float(value)


def _half_angle_tangents(model: SurrogateModel, theta):
    """t = tan(θ/2) and q = 1 + t² = 1/a(θ), inside the trust region only.

    Raises ``TrustRegionError`` for ‖θ‖∞ ≥ π/2, where the model's closed
    form is not declared; inside it |tₖ| < 1 and 1 ≤ qₖ < 2.  A NaN or
    ±inf entry, which fails ‖θ‖∞ < π/2 too, raises a plain ``ValueError``.
    """
    theta = _check_length(model, theta)
    norm = np.abs(theta).max()  # NaN and inf propagate through max
    if not norm < HALF_PI:
        if not norm < np.inf:
            raise ValueError("non-finite entries in theta")
        raise TrustRegionError(
            f"‖θ‖∞ = {norm:.6g} is outside the |θₖ| < π/2 "
            "trust region; a(θₖ) may vanish"
        )
    t = np.tan(0.5 * theta)
    return t, 1.0 + t * t


def eval_gradient(model: SurrogateModel, theta) -> np.ndarray:
    """Exact gradient of the truncated series, O(ν²) per call.

    In t = tan(θ/2), with dt/dθ = q/2 and q = 1 + t², the closed form
    S/∏q of ``eval_energy`` differentiates to ∇Ê = (q·u − t·S)/∏q, where
    u = ½∂S/∂t = (eB + r)/2 + t·eC with r = (eD + eDᵀ)·t, and
    S = eA + t·(u + eB/2).  Only valid inside the |θₖ| < π/2 trust region;
    at θ=0 the result is exactly eB/2, the parameter-shift gradient.
    """
    t, q = _half_angle_tangents(model, theta)
    half_eB = model._half_eB
    u = (half_eB + model._half_eD_symmetric @ t) + t * model.eC
    bracket = model.eA + np.dot(t, u + half_eB)
    return (q * u - t * bracket) / q.prod()


def gradient_variance(model: SurrogateModel, theta) -> np.ndarray:
    """Linear error propagation: var[∂ₘÊ](θ) = Σ (∂monomial/∂θₘ)²·var(coeff).

    The full sum over all coefficient classes, not only the leading eB term;
    at θ=0 it reduces to varBₘ/4.  In t = tan(θ/2) a word M(t)/∏q has
    ∂ₘ = [(qₘ/2)·∂M/∂tₘ − tₘ·M]/∏q, e.g. −tₘ/∏q for the eA word and
    (1 − tₘ²)/2/∏q for the B word of axis m.  Same trust region as
    ``eval_gradient``.
    """
    by_class = gradient_variance_by_class(model, theta)
    return by_class["A"] + by_class["B"] + by_class["C"] + by_class["D"]


def gradient_variance_by_class(model: SurrogateModel, theta) -> dict[str, np.ndarray]:
    """Per-class contributions to the gradient variance (diagnostics)."""
    t, q = _half_angle_tangents(model, theta)
    a_sq = 1.0 / q.prod() ** 2
    t2 = t * t
    p2 = (0.5 * (1.0 - t2)) ** 2
    rv = (model.varD + model.varD.T) @ t2
    vb_total = float(np.dot(t2, model.varB))
    vc_total = float(np.dot(t2 * t2, model.varC))
    vd_total = 0.5 * float(np.dot(t2, rv))
    return {
        "A": a_sq * t2 * model.varA,
        "B": a_sq * (p2 * model.varB + t2 * (vb_total - t2 * model.varB)),
        "C": a_sq * (t2 * model.varC + t2 * (vc_total - t2 * t2 * model.varC)),
        "D": a_sq * (p2 * rv + t2 * (vd_total - t2 * rv)),
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


def model_to_json(model: SurrogateModel) -> str:
    """Checkpoint form: ``nu``, then every field in order; round-trips exactly."""
    payload = {"nu": model.nu}
    for f in fields(SurrogateModel):
        value = getattr(model, f.name)
        payload[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return json.dumps(payload, indent=2)


def model_from_json(text: str) -> SurrogateModel:
    """Read a ``model_to_json`` checkpoint; a field it lacks, or a ``nu``
    other than len(eB), raises ``ValueError`` naming it."""
    payload = json.loads(text)
    if not isinstance(payload, dict):
        raise ValueError("checkpoint must be a JSON object")
    names = [f.name for f in fields(SurrogateModel)]
    for name in names:
        if name not in payload:
            raise ValueError(f"checkpoint has no field {name!r}")
    model = SurrogateModel(**{name: payload[name] for name in names})
    # ``nu`` after the model, so the model's own checks (ν ≥ 1) speak first.
    if "nu" not in payload:
        raise ValueError("checkpoint has no field 'nu'")
    if payload["nu"] != model.nu:
        raise ValueError(
            f"checkpoint field 'nu' is {payload['nu']!r}, but eB has {model.nu} entries"
        )
    return model
