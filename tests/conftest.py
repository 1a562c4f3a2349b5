"""Shared helpers: independent reference oracles and random generators.

The dense oracles deliberately avoid the package's own gate kernels: states
and operators are built from explicit 2x2 matrices, Kronecker products, and
scipy's matrix exponential, so cross-checks run through genuinely different
arithmetic than the code under test.  The untruncated 3^ν expansion and the
O(ν⁴) leave-out-product gradient are the surrogate's slow reference routes,
and the two-query shift rule is the energy gradient's device protocol.
"""

import itertools

import numpy as np
from scipy.linalg import expm

from analytic_descent import AnsatzCircuit, PauliString, PauliSum, SurrogateModel, energy
from analytic_descent.surrogate import HALF_PI, _check_length

SINGLE_QUBIT = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
    "Y": np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex),
    "Z": np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex),
}


def pauli_matrix(letters: str) -> np.ndarray:
    """Dense matrix of a Pauli string, qubit 0 leftmost in the Kron order."""
    out = np.array([[1.0 + 0.0j]])
    for letter in letters:
        out = np.kron(out, SINGLE_QUBIT[letter])
    return out


def dense_hamiltonian(h: PauliSum) -> np.ndarray:
    dim = 2**h.num_qubits
    out = np.zeros((dim, dim), dtype=complex)
    for coeff, string in h.terms:
        out += coeff * pauli_matrix(string.letters)
    return out


def dense_prepared_state(circuit: AnsatzCircuit, theta) -> np.ndarray:
    """Reference state preparation through scipy.linalg.expm, gate by gate."""
    psi = np.zeros(2**circuit.num_qubits, dtype=complex)
    psi[0] = 1.0
    total = np.asarray(circuit.theta_ref) + np.asarray(theta, dtype=float)
    for angle, generator in zip(total, circuit.generators):
        psi = expm(-0.5j * angle * pauli_matrix(generator.letters)) @ psi
    return psi


def dense_energy(circuit: AnsatzCircuit, theta, h: PauliSum) -> float:
    psi = dense_prepared_state(circuit, theta)
    return float(np.real(psi.conj() @ dense_hamiltonian(h) @ psi))


def shift_rule_gradient(circuit: AnsatzCircuit, theta, h: PauliSum) -> np.ndarray:
    """The 2ν-query device protocol gₖ = [E(θ + π/2·eₖ) − E(θ − π/2·eₖ)]/2."""
    theta = np.asarray(theta, dtype=float)
    shifts = HALF_PI * np.eye(circuit.num_parameters)
    pairs = [(energy(circuit, theta + s, h), energy(circuit, theta - s, h)) for s in shifts]
    return np.array([plus - minus for plus, minus in pairs]) / 2


def fd_metric(circuit: AnsatzCircuit, theta, eps: float = 1e-4) -> np.ndarray:
    """Independent metric route: 2 tr[dr_m dr_n] from centered density-matrix
    differences built on the dense matrix-exponential state preparation."""
    nu = circuit.num_parameters

    def rho(t):
        psi = dense_prepared_state(circuit, t)
        return np.outer(psi, psi.conj())

    theta = np.asarray(theta, dtype=float)
    drho = []
    for m in range(nu):
        e = np.zeros(nu)
        e[m] = eps
        drho.append((rho(theta + e) - rho(theta - e)) / (2.0 * eps))
    out = np.empty((nu, nu))
    for m in range(nu):
        for n in range(nu):
            out[m, n] = 2.0 * np.real(np.trace(drho[m] @ drho[n]))
    return out


_LETTERS = np.array(list("IXYZ"))


def random_string(rng, n: int, identity_ok: bool = False) -> PauliString:
    while True:
        letters = "".join(rng.choice(_LETTERS, size=n))
        if identity_ok or set(letters) != {"I"}:
            return PauliString(letters)


def random_hamiltonian(rng, n: int, num_terms: int) -> PauliSum:
    terms = tuple(
        (float(rng.uniform(-1.0, 1.0)), random_string(rng, n))
        for _ in range(num_terms)
    )
    return PauliSum(n, terms)


def random_circuit(rng, n: int, nu: int, spread: float = np.pi) -> AnsatzCircuit:
    generators = tuple(random_string(rng, n) for _ in range(nu))
    theta_ref = rng.uniform(-spread, spread, nu)
    return AnsatzCircuit(n, generators, theta_ref)


def fourier_components(theta):
    """a, b, c = (1 + cos θ)/2, sin θ/2, (1 − cos θ)/2 on every axis."""
    cos = np.cos(theta)
    return 0.5 * (1.0 + cos), 0.5 * np.sin(theta), 0.5 * (1.0 - cos)


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
        factors = np.stack(fourier_components(theta))[self.words, np.arange(self.nu)]
        return float(np.dot(np.prod(factors, axis=1), self.coeffs))


def brute_force_energy(circuit: AnsatzCircuit, h, theta) -> float:
    """Evaluate the untruncated 3^ν expansion at θ (rebuilds it; tests only)."""
    return FullTrigExpansion(circuit, h).energy(theta)


def eval_gradient_reference(model: SurrogateModel, theta) -> np.ndarray:
    """Division-free gradient via direct leave-out products (slow test path).

    Valid everywhere, including the |θₖ| = π/2 boundary; O(ν⁴) work, meant
    for small ν cross-checks of the fast path.
    """
    theta = _check_length(model, theta)
    nu = model.nu
    a, b, c = fourier_components(theta)
    da, db, dc = -b, 0.5 * np.cos(theta), b

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
