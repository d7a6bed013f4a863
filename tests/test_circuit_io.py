"""wcircuit v1 serialization: round-trips and strict parse errors."""
import math

import pytest
from hypothesis import given, strategies as st

from wstates import (
    CNOT,
    CZ,
    Circuit,
    CircuitParseError,
    F,
    Level,
    ROT,
    build_w_circuit,
    load_circuit,
    lower,
    parse_circuit,
    save_circuit,
    serialize_circuit,
)
from wstates.gates import ALLOWED_KINDS


def test_serialized_header_and_shape():
    text = serialize_circuit(build_w_circuit(3))
    lines = text.splitlines()
    assert lines[0] == "wcircuit 1"
    assert lines[1] == "qubits 3"
    assert len(lines) == 6
    assert lines[2].startswith("F 1 2 ")
    assert lines[3] == "CNOT 2 1"
    assert lines[4].startswith("F 2 3 ")
    assert lines[5] == "CNOT 3 2"
    assert text.endswith("\n")


@pytest.mark.parametrize("n", range(3, 11))
def test_synthesized_circuits_round_trip(n):
    circuit = build_w_circuit(n)
    assert parse_circuit(serialize_circuit(circuit)) == circuit


@pytest.mark.parametrize("target", [Level.CZ_LEVEL, Level.ELEMENTARY])
def test_lowered_circuits_round_trip(target):
    circuit = lower(build_w_circuit(5), target)
    assert parse_circuit(serialize_circuit(circuit)) == circuit


def test_elementary_rot_lines_carry_plate_comment():
    circuit = lower(build_w_circuit(3), Level.ELEMENTARY)
    rot_lines = [
        ln for ln in serialize_circuit(circuit).splitlines() if ln.startswith("ROT")
    ]
    assert rot_lines and all("# plate_angle_deg=" in ln for ln in rot_lines)
    # Hadamard plates sit at pi/8 = 22.5 deg.
    assert any(ln.endswith("=22.5") for ln in rot_lines)


def test_comments_and_blank_lines_ignored():
    text = """
# preparation network
wcircuit 1

qubits 2   # two rails
F 1 2 0.5  # coupler
CNOT 2 1
"""
    circuit = parse_circuit(text)
    assert circuit == Circuit(2, (F(1, 2, 0.5), CNOT(2, 1)))


def test_file_round_trip(tmp_path):
    path = tmp_path / "c.wc"
    circuit = build_w_circuit(4)
    save_circuit(circuit, path)
    assert load_circuit(path) == circuit
    assert path.read_bytes().decode() == serialize_circuit(circuit)


def test_level_inference():
    assert parse_circuit("wcircuit 1\nqubits 2\nF 1 2 0.5\n").level == Level.COMPOSITE
    assert parse_circuit("wcircuit 1\nqubits 2\nCZ 1 2\nROT 1 0.5\n").level == Level.CZ_LEVEL
    assert parse_circuit("wcircuit 1\nqubits 2\nROT 1 0.5\nCNOT 1 2\n").level == Level.ELEMENTARY
    assert parse_circuit("wcircuit 1\nqubits 2\n").level == Level.ELEMENTARY


@pytest.mark.parametrize(
    "text",
    [
        "",
        "qubits 2\n",
        "wcircuit 2\nqubits 2\n",
        "wcircuit 1 extra\nqubits 2\n",
        "wcircuit 1\n",
        "wcircuit 1\nqubits\n",
        "wcircuit 1\nqubits two\n",
        "wcircuit 1\nqubits 1\n",
        "wcircuit 1\nqubits 2 2\n",
        "wcircuit 1\nqubits 2\nHADAMARD 1\n",
        "wcircuit 1\nqubits 2\nF 1 2\n",            # missing angle
        "wcircuit 1\nqubits 2\nCNOT 1 2 0.5\n",     # extra field
        "wcircuit 1\nqubits 2\nCNOT 1\n",
        "wcircuit 1\nqubits 2\nCNOT 0 1\n",
        "wcircuit 1\nqubits 2\nCNOT 1 3\n",
        "wcircuit 1\nqubits 2\nCNOT 1 1\n",
        "wcircuit 1\nqubits 2\nROT 1 abc\n",
        "wcircuit 1\nqubits 2\nROT 1 nan\n",
        "wcircuit 1\nqubits 2\nROT 1 inf\n",
        "wcircuit 1\nqubits 2\nF 1 2 0.5\nROT 1 0.5\n",  # kinds fit no level
        "wcircuit 1\nqubits 2\nF 1.5 2 0.5\n",
    ],
)
def test_malformed_documents_rejected(text):
    with pytest.raises(CircuitParseError):
        parse_circuit(text)


def test_parse_error_reports_line_number():
    with pytest.raises(CircuitParseError, match="line 3"):
        parse_circuit("wcircuit 1\nqubits 2\nCNOT 0 1\n")


def test_qubit_count_beyond_int32_rejected_with_line_number():
    big = 2**31
    assert parse_circuit(f"wcircuit 1\nqubits {big - 1}\nCNOT {big - 1} 1\n")
    with pytest.raises(CircuitParseError, match="line 2"):
        parse_circuit(f"wcircuit 1\nqubits {big}\nCNOT {big} 1\n")


def test_every_circuit_that_builds_reads_back():
    # The largest qubit count a Circuit takes is the largest a file may name.
    with pytest.raises(ValueError, match=r"^circuits need 2 to 2147483647 qubits, got 2147483648$"):
        Circuit(2**31, ())
    circuit = Circuit(2**31 - 1, (CNOT(1, 2),))
    text = serialize_circuit(circuit)
    assert text == "wcircuit 1\nqubits 2147483647\nCNOT 1 2\n"
    back = parse_circuit(text)
    assert back.n_qubits == circuit.n_qubits and back.gates == circuit.gates
    assert serialize_circuit(back) == text


def _gates_of(kinds, n):
    pairs = st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])
    angles = st.floats(allow_nan=False, allow_infinity=False)
    make = {
        "F": st.builds(lambda p, a: F(*p, a), pairs, angles),
        "CNOT": pairs.map(lambda p: CNOT(*p)),
        "CZ": pairs.map(lambda p: CZ(*p)),
        "ROT": st.builds(ROT, st.integers(1, n), angles),
    }
    return st.lists(st.one_of(*(make[k] for k in sorted(kinds))), max_size=8)


# Any mix of kinds that fits a level: a draw of the kinds one level allows.
_circuits = st.tuples(st.integers(2, 5), st.sampled_from(Level)).flatmap(
    lambda drawn: st.tuples(st.just(drawn[0]), _gates_of(ALLOWED_KINDS[drawn[1]], drawn[0]))
)


@given(_circuits)
def test_round_trip_is_exact_for_arbitrary_circuits(drawn):
    n, gates = drawn
    circuit = Circuit(n, tuple(gates))
    text = serialize_circuit(circuit)
    parsed = parse_circuit(text)
    assert parsed == circuit and parsed.level == circuit.level
    assert serialize_circuit(parsed) == text  # a fixed point on the bytes


def test_cnot_only_circuit_round_trips_at_its_level():
    # CNOTs fit every level, so the circuit is ELEMENTARY, in memory and in a file.
    circuit = Circuit(2, (CNOT(1, 2),))
    assert circuit.level == Level.ELEMENTARY
    assert parse_circuit(serialize_circuit(circuit)) == circuit


def test_rot_only_file_is_written_the_same_twice():
    # A ROT-only circuit is ELEMENTARY, so its plates are annotated on the
    # first write as on every later one.
    text = serialize_circuit(Circuit(2, (ROT(1, 0.5), ROT(2, math.pi / 4))))
    assert text.count("# plate_angle_deg=") == 2
    assert serialize_circuit(parse_circuit(text)) == text


def test_kinds_that_fit_no_level_name_their_kinds():
    with pytest.raises(CircuitParseError, match=r"^gate kinds \['CZ', 'F'\] fit no lowering level$"):
        parse_circuit("wcircuit 1\nqubits 2\nF 1 2 0.5\nCZ 1 2\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("CNOT 1_0 2", "line 3: bad qubit index '1_0'"),
        ("CNOT +1 2", "line 3: bad qubit index '+1'"),
        ("CNOT 1 \u0662", "line 3: bad qubit index '\u0662'"),  # Arabic-Indic 2
        ("ROT \uff11 0.5", "line 3: bad qubit index '\uff11'"),  # fullwidth 1
        ("F 1 2 1_0.5", "line 3: bad angle '1_0.5'"),
        ("ROT 1 \u0661.5", "line 3: bad angle '\u0661.5'"),  # Arabic-Indic 1
    ],
)
def test_tokens_int_and_float_would_take_are_rejected(line, message):
    with pytest.raises(CircuitParseError) as info:
        parse_circuit(f"wcircuit 1\nqubits 12\n{line}\n")
    assert str(info.value) == message


@pytest.mark.parametrize("count", ["1_0", "+3", "\u0663"])
def test_qubit_count_is_ascii_digits(count):
    with pytest.raises(CircuitParseError) as info:
        parse_circuit(f"wcircuit 1\nqubits {count}\n")
    assert str(info.value) == f"line 2: bad qubit count {count!r}"


def test_signs_and_exponents_stay_legal_in_angles():
    circuit = parse_circuit("wcircuit 1\nqubits 002\nROT 01 1e+20\nROT 2 -.5E-3\nROT 1 +2.\n")
    assert circuit.n_qubits == 2
    assert circuit.gates == (ROT(1, 1e20), ROT(2, -0.0005), ROT(1, 2.0))
    assert "ROT 1 1e+20 " in serialize_circuit(circuit)
