"""Pauli strings, sums, text format, and the spin-ring generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from analytic_descent import (
    PauliString,
    PauliSum,
    format_pauli_sum,
    parse_pauli_sum,
    spin_ring_hamiltonian,
)


def test_pauli_string_basics():
    s = PauliString("XIZ")
    assert s.num_qubits == 3
    assert str(s) == "XIZ"


def test_pauli_string_rejects_bad_letters():
    with pytest.raises(ValueError, match="allowed letters"):
        PauliString("XQ")
    with pytest.raises(ValueError, match="at least one qubit"):
        PauliString("")


def test_pauli_sum_merges_duplicates():
    h = PauliSum(2, ((0.5, PauliString("XX")), (0.5, PauliString("XX"))))
    assert h.num_terms == 1
    coeff, string = h.terms[0]
    assert coeff == 1.0
    assert string.letters == "XX"


def test_pauli_sum_drops_cancelled_terms():
    h = PauliSum(1, ((1.0, PauliString("Z")), (-1.0, PauliString("Z"))))
    assert h.num_terms == 0


def test_pauli_sum_rejects_mixed_sizes():
    with pytest.raises(ValueError, match="acts on 1 qubits"):
        PauliSum(2, ((1.0, PauliString("Z")),))


def test_pauli_sum_rejects_non_finite():
    with pytest.raises(ValueError, match="non-finite"):
        PauliSum(1, ((float("nan"), PauliString("Z")),))


def test_pauli_sum_rejects_duplicates_that_overflow_when_merged():
    with pytest.raises(ValueError, match="non-finite coefficient inf for Z"):
        PauliSum(1, ((1e308, PauliString("Z")), (1e308, PauliString("Z"))))
    with pytest.raises(ValueError, match="non-finite"):
        parse_pauli_sum("1e308 Z\n1e308 Z")


def test_parse_single_term():
    h = parse_pauli_sum("1.0 Z")
    assert h.num_qubits == 1
    assert h.terms == ((1.0, PauliString("Z")),)


def test_parse_merges():
    h = parse_pauli_sum("0.5 XX\n0.5 XX")
    assert h.num_qubits == 2
    assert h.terms == ((1.0, PauliString("XX")),)


def test_parse_two_term_three_qubit():
    h = parse_pauli_sum("0.05 XXI\n0.05 IXX")
    assert h.num_qubits == 3
    assert h.num_terms == 2
    assert all(coeff == 0.05 for coeff, _ in h.terms)


def test_parse_skips_comments_and_blanks():
    h = parse_pauli_sum("# a comment\n\n1.0 Z\n")
    assert h.terms == ((1.0, PauliString("Z")),)


def test_parse_empty_needs_header():
    with pytest.raises(ValueError, match="empty input"):
        parse_pauli_sum("")
    h = parse_pauli_sum("# qubits: 4\n")
    assert h.num_qubits == 4
    assert h.num_terms == 0


def test_parse_error_lines_are_named():
    with pytest.raises(ValueError, match="line 2: malformed coefficient"):
        parse_pauli_sum("1.0 Z\nx Z")
    with pytest.raises(ValueError, match="line 2.*length"):
        parse_pauli_sum("1.0 ZZ\n1.0 Z")
    with pytest.raises(ValueError, match="line 1: expected"):
        parse_pauli_sum("1.0")
    with pytest.raises(ValueError, match="line 1.*allowed letters"):
        parse_pauli_sum("1.0 ZQ")
    with pytest.raises(ValueError, match="line 1: malformed qubit header '# qubits: two'"):
        parse_pauli_sum("# qubits: two\n1.0 Z")
    # the header's line for a header that is refused or disagrees with the terms
    with pytest.raises(ValueError, match="line 1: num_qubits must be positive, got 0"):
        parse_pauli_sum("# qubits: 0")
    with pytest.raises(ValueError, match="line 2: header declares 2 qubits but terms have length 3"):
        parse_pauli_sum("# a comment\n# qubits: 2\n1.0 XXX")
    # the term's line for a coefficient that is not finite on its own
    for text, message in (
        ("nan XX", "line 1: non-finite coefficient nan for XX"),
        ("1e400 XX", "line 1: non-finite coefficient inf for XX"),
        ("1.0 ZZ\n\n-inf XY", "line 3: non-finite coefficient -inf for XY"),
    ):
        with pytest.raises(ValueError, match=message):
            parse_pauli_sum(text)


def test_a_sum_needs_a_qubit():
    with pytest.raises(ValueError, match="num_qubits must be positive, got 0"):
        PauliSum(0, ())


def test_parse_header_mismatch():
    with pytest.raises(ValueError, match="header declares 3"):
        parse_pauli_sum("# qubits: 3\n1.0 Z")


def test_format_single_term():
    assert format_pauli_sum(PauliSum(1, ((1.0, PauliString("Z")),))) == (
        "# qubits: 1\n1 Z\n"
    )


def test_format_empty_sum_round_trips():
    h = PauliSum(5, ())
    again = parse_pauli_sum(format_pauli_sum(h))
    assert again.num_qubits == 5
    assert again.num_terms == 0


@st.composite
def _sums(draw):
    n = draw(st.integers(1, 8))
    letters = st.text(alphabet="IXYZ", min_size=n, max_size=n).map(PauliString)
    coefficient = st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False)
    return PauliSum(n, tuple(draw(st.lists(st.tuples(coefficient, letters), max_size=50))))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(h=_sums())
def test_round_trip_random_sums(h):
    """parse(format(h)) == h term by term, coefficients bit for bit, N <= 8."""
    again = parse_pauli_sum(format_pauli_sum(h))
    assert again.num_qubits == h.num_qubits
    assert len(again.terms) == len(h.terms)
    for (ca, sa), (cb, sb) in zip(again.terms, h.terms):
        assert sa == sb
        assert np.float64(ca).tobytes() == np.float64(cb).tobytes()


def test_spin_ring_words_and_coefficients():
    h = spin_ring_hamiltonian(3, 0.25, [0.5, 0.0, -1.5])
    assert [(coeff, string.letters) for coeff, string in h.terms] == [
        (-1.5, "IIZ"), (0.25, "IXX"), (0.25, "IYY"), (0.25, "IZZ"),
        (0.25, "XIX"), (0.25, "XXI"), (0.25, "YIY"), (0.25, "YYI"),
        (0.5, "ZII"), (0.25, "ZIZ"), (0.25, "ZZI"),
    ]


def test_spin_ring_structure():
    h = spin_ring_hamiltonian(3, 0.05)
    assert h.num_qubits == 3
    assert h.num_terms == 9
    for coeff, string in h.terms:
        assert coeff == 0.05
        sites = [q for q, letter in enumerate(string.letters) if letter != "I"]
        letters = {string.letters[q] for q in sites}
        assert len(sites) == 2 and len(letters) == 1
        # ring adjacency, site N+1 identified with site 1
        assert (sites[1] - sites[0]) % 3 in (1, 2)


def test_spin_ring_two_sites_merges_bonds():
    h = spin_ring_hamiltonian(2, 0.05)
    assert h.num_terms == 3
    assert all(coeff == 0.1 for coeff, _ in h.terms)


def test_spin_ring_field_terms():
    h = spin_ring_hamiltonian(4, 0.05, [0.3, 0.0, -0.2, 0.1])
    assert h.num_terms == 3 * 4 + 3
    zi = {string.letters: coeff for coeff, string in h.terms
          if set(string.letters) <= {"I", "Z"} and string.letters.count("Z") == 1}
    assert zi == {"ZIII": 0.3, "IIZI": -0.2, "IIIZ": 0.1}


def test_spin_ring_twelve_site_term_count():
    rng = np.random.default_rng(0)
    h = spin_ring_hamiltonian(12, 0.05, rng.uniform(-1.0, 1.0, 12))
    assert h.num_qubits == 12
    assert h.num_terms == 48


def test_spin_ring_rejects_bad_input():
    with pytest.raises(ValueError, match="N >= 2"):
        spin_ring_hamiltonian(1, 0.05)
    with pytest.raises(ValueError, match="length 3"):
        spin_ring_hamiltonian(3, 0.05, [0.1, 0.2])
