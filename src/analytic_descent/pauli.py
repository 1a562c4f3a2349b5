"""Pauli strings, real-weighted Pauli sums, and Hamiltonian generators.

A Pauli string is a dense tensor product of single-qubit operators from
{I, X, Y, Z}, written as a letter sequence with qubit 0 leftmost.  This
module owns that word layout, letter q on qubit q and I on the rest, and
is the only one that builds words: the text format's parser, the spin-ring
builder and ``ansatz.build_hardware_efficient`` all take theirs from here,
the builders through ``_word``.  A Pauli sum is a real linear combination
of Pauli strings on a common qubit count; real coefficients keep the
operator Hermitian by construction.  A sum's compiled flip patterns are
cached on the sum, and the simulator applies H only through them.  A Pauli
string's signed-permutation kernel is not cached on its own: H's kernels
live in its flip patterns, a circuit's in the gate table that
``simulator._gate_table`` builds and the circuit keeps.
``MAX_QUBITS``, the cap of a register, is bound here alone and checked
only where a register's first 2^N arrays are built: ``flip_patterns``
refuses a larger register before building H's, and
``AnsatzCircuit._gate_table`` before building a circuit's table.

The text format is one term per line, ``<coefficient> <letters>``, with
``#``-prefixed comment lines.  A ``# qubits: N`` header is always emitted so
that sums with no terms still round-trip.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

_VALID_LETTERS = frozenset("IXYZ")

# Terms with |coefficient| below this are dropped when a sum is canonicalized.
MERGE_TOLERANCE = 1e-15

# Largest supported register; 2^20 amplitudes is still a small dense vector.
# Read as ``pauli.MAX_QUBITS`` at check time, never imported by value.
MAX_QUBITS = 20


@dataclass(frozen=True)
class PauliString:
    """Tensor product of single-qubit Paulis, e.g. ``"XIZ"`` for X⊗I⊗Z.

    Parameters
    ----------
    letters : str
        One character per qubit from {I, X, Y, Z}; qubit 0 is leftmost.
    """

    letters: str

    def __post_init__(self):
        if not self.letters:
            raise ValueError("Pauli string must have at least one qubit")
        bad = set(self.letters) - _VALID_LETTERS
        if bad:
            raise ValueError(
                f"invalid Pauli letters {sorted(bad)} in {self.letters!r}; "
                "allowed letters are I, X, Y, Z"
            )

    @property
    def num_qubits(self) -> int:
        return len(self.letters)

    def __str__(self) -> str:
        return self.letters


def _word(n: int, letters: dict[int, str]) -> PauliString:
    """The n-qubit word with ``letters[q]`` on qubit q and I on the rest."""
    chars = ["I"] * n
    for qubit, letter in letters.items():
        chars[qubit] = letter
    return PauliString("".join(chars))


def _pauli_kernel(letters: str):
    """Signed-permutation form of a Pauli string: (source index, phase)."""
    n = len(letters)
    flip = 0
    sign_mask = 0
    n_y = 0
    for k, letter in enumerate(letters):
        bit = 1 << (n - 1 - k)
        if letter in "XY":
            flip |= bit
        if letter in "YZ":
            sign_mask |= bit
        if letter == "Y":
            n_y += 1
    idx = np.arange(2**n, dtype=np.int64)
    src = idx ^ flip
    parity = (np.bitwise_count(src & sign_mask) & 1).astype(np.int64)
    phase = (1j**n_y) * np.where(parity, -1.0, 1.0)
    phase = np.asarray(phase, dtype=np.complex128)
    phase.flags.writeable = False
    src.flags.writeable = False
    return src, phase


@dataclass(frozen=True)
class PauliSum:
    """Real linear combination of Pauli strings on a common qubit count.

    Terms are canonicalized on construction: sorted lexicographically by
    letter string, duplicates merged by summing coefficients, and merged
    coefficients with magnitude below ``MERGE_TOLERANCE`` dropped.  The
    result is immutable; all coefficients must be finite reals so the
    operator is Hermitian by construction.
    """

    num_qubits: int
    terms: tuple[tuple[float, PauliString], ...] = field(default=())

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError(f"num_qubits must be positive, got {self.num_qubits}")
        merged: dict[str, float] = {}
        for coeff, string in self.terms:
            if string.num_qubits != self.num_qubits:
                raise ValueError(
                    f"term {string} acts on {string.num_qubits} qubits, "
                    f"sum declares {self.num_qubits}"
                )
            merged[string.letters] = merged.get(string.letters, 0.0) + float(coeff)
        # A non-finite term makes its merged sum non-finite, and finite
        # duplicates can overflow when summed: check the sums.
        for letters, coeff in merged.items():
            if not np.isfinite(coeff):
                raise ValueError(f"non-finite coefficient {coeff} for {letters}")
        canonical = tuple(
            (c, PauliString(s))
            for s, c in sorted(merged.items())
            if abs(c) >= MERGE_TOLERANCE
        )
        object.__setattr__(self, "terms", canonical)

    @property
    def num_terms(self) -> int:
        return len(self.terms)

    @cached_property
    def flip_patterns(self) -> tuple[tuple[np.ndarray | None, np.ndarray], ...]:
        """H compiled once: (source index, weight) per flip pattern, so that
        H·v = Σ weight·v[src].  Terms flipping the same qubits share one
        gather, their weighted phases summed in term order (7 patterns for
        the 24 terms of the six-site ring); the diagonal (Z-only) pattern's
        index is None.  Patterns keep the order of their first term.  A
        register over ``MAX_QUBITS`` qubits is refused before any is built."""
        if self.num_qubits > MAX_QUBITS:
            raise ValueError(f"qubit count {self.num_qubits} exceeds cap {MAX_QUBITS}")
        patterns: dict[int, tuple[np.ndarray, np.ndarray]] = {}
        for coeff, string in self.terms:
            src, phase = _pauli_kernel(string.letters)
            _, weight = patterns.get(int(src[0]), (src, 0.0))
            patterns[int(src[0])] = (src, weight + coeff * phase)
        for _, weight in patterns.values():
            weight.flags.writeable = False
        return tuple((src if flip else None, w) for flip, (src, w) in patterns.items())


def parse_pauli_sum(text: str) -> PauliSum:
    """Parse the line-oriented Pauli-sum format into a merged PauliSum.

    Each non-empty, non-comment line must be ``<coefficient> <letters>`` with
    all letter strings of equal length.  The qubit count is inferred from the
    letters, or from a ``# qubits: N`` header when the body has no terms; a
    header beside terms must agree with their length.  Empty input (no
    terms, no header) raises ValueError.

    Raises
    ------
    ValueError
        On a malformed header or number, a qubit count below 1, a non-finite
        coefficient, inconsistent string lengths, bad letters, or a header
        mismatch, naming the offending line.  Finite duplicates whose merged
        sum overflows are refused by ``PauliSum``, as no one line holds them.
    """
    terms: list[tuple[float, PauliString]] = []
    header_qubits: int | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.lower().startswith("qubits:"):
                value = body.split(":", 1)[1].strip()
                try:
                    header_qubits, header_line = int(value), lineno
                except ValueError:
                    raise ValueError(
                        f"line {lineno}: malformed qubit header {line!r}"
                    ) from None
            continue
        fields = line.split()
        if len(fields) != 2:
            raise ValueError(
                f"line {lineno}: expected '<coefficient> <letters>', got {line!r}"
            )
        value_text, letters = fields
        try:
            value = float(value_text)
        except ValueError:
            raise ValueError(
                f"line {lineno}: malformed coefficient {value_text!r}"
            ) from None
        if terms and len(letters) != terms[0][1].num_qubits:
            raise ValueError(
                f"line {lineno}: Pauli string {letters!r} has length "
                f"{len(letters)}, previous lines have length {terms[0][1].num_qubits}"
            )
        try:
            string = PauliString(letters)
        except ValueError as exc:
            raise ValueError(f"line {lineno}: {exc}") from None
        if not math.isfinite(value):
            raise ValueError(f"line {lineno}: non-finite coefficient {value} for {letters}")
        terms.append((value, string))
    if not terms:
        if header_qubits is None:
            raise ValueError("empty input: no terms and no '# qubits: N' header")
        try:
            return PauliSum(header_qubits, ())
        except ValueError as exc:
            raise ValueError(f"line {header_line}: {exc}") from None
    if header_qubits is not None and header_qubits != terms[0][1].num_qubits:
        raise ValueError(
            f"line {header_line}: header declares {header_qubits} qubits but "
            f"terms have length {terms[0][1].num_qubits}"
        )
    return PauliSum(terms[0][1].num_qubits, tuple(terms))


def format_pauli_sum(h: PauliSum) -> str:
    """Emit the text form of ``h``; ``parse_pauli_sum`` inverts it exactly.

    Coefficients are printed with enough digits (%.17g) to round-trip
    float64 values bit for bit.
    """
    lines = [f"# qubits: {h.num_qubits}"]
    for coeff, string in h.terms:
        lines.append(f"{coeff:.17g} {string.letters}")
    return "\n".join(lines) + "\n"


def spin_ring_hamiltonian(N: int, J: float, omega=None) -> PauliSum:
    """Periodic Heisenberg ring with longitudinal fields.

    Builds sum_i J·(X_i X_{i+1} + Y_i Y_{i+1} + Z_i Z_{i+1}) + sum_i ω_i Z_i
    with site N+1 identified with site 1.  For N=2 the two bonds coincide, so
    the coupling terms merge to coefficient 2J each.

    Parameters
    ----------
    N : int
        Number of ring sites (qubits), N ≥ 2.
    J : float
        Uniform exchange coupling.
    omega : array_like of N reals, optional
        Longitudinal field per site; zero entries emit no term.  None means
        all-zero fields.
    """
    if N < 2:
        raise ValueError(f"spin ring needs N >= 2 sites, got {N}")
    omega = np.zeros(N) if omega is None else np.asarray(omega, dtype=float)
    if omega.shape != (N,):
        raise ValueError(f"omega must have length {N}, got shape {omega.shape}")

    terms = [
        (J, _word(N, {i: letter, (i + 1) % N: letter}))
        for i in range(N)
        for letter in "XYZ"
    ]
    terms += [(float(omega[i]), _word(N, {i: "Z"})) for i in range(N) if omega[i] != 0.0]
    return PauliSum(N, tuple(terms))
