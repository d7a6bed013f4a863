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
    assert circuit == Circuit(2, (F(1, 2, 0.5), CNOT(2, 1)), Level.COMPOSITE)


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


_gates = st.integers(2, 5).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.one_of(
                st.builds(
                    F,
                    st.integers(1, n - 1),
                    st.just(n),
                    st.floats(-2 * math.pi, 2 * math.pi),
                ),
                st.builds(CNOT, st.integers(2, n), st.integers(1, 1)),
                st.builds(CZ, st.integers(1, 1), st.integers(2, n)),
                st.builds(ROT, st.integers(1, n), st.floats(-8.0, 8.0)),
            ),
            max_size=8,
        ),
    )
)


@given(_gates)
def test_round_trip_is_exact_for_arbitrary_circuits(drawn):
    n, gates = drawn
    kinds = {g.kind for g in gates}
    for level in (Level.ELEMENTARY, Level.CZ_LEVEL, Level.COMPOSITE):
        from wstates.gates import ALLOWED_KINDS

        if kinds <= ALLOWED_KINDS[level]:
            circuit = Circuit(n, tuple(gates), level)
            assert parse_circuit(serialize_circuit(circuit)) == circuit
            return
    # kind mix fits no level: nothing to round-trip
