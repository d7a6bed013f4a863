"""Column storage of circuits: the read-only gate sequence and its checks."""
import math

import numpy as np
import pytest

from wstates import (
    CNOT,
    CZ,
    Circuit,
    CircuitParseError,
    F,
    Gate,
    GateColumns,
    Level,
    ROT,
    apply_gate,
    basis_state,
    build_w_circuit,
    parse_circuit,
    predicted_counts,
)
from wstates.gates import CNOT_CODE, F_CODE, ROT_CODE, columns_of
from wstates.simulator import _fusion_plan

MIXED = (F(1, 2, 0.5), CNOT(3, 1), CZ(2, 3), ROT(3, -0.0), ROT(1, 1.25))


def test_gates_are_a_lazy_read_only_sequence():
    gates = build_w_circuit(5).gates
    assert isinstance(gates, GateColumns)
    assert len(gates) == predicted_counts(5).total_two_qubit
    assert gates[0] == F(1, 2, math.acos(1 / math.sqrt(5)))
    assert gates[-1] == gates[len(gates) - 1] == CNOT(5, 1)
    assert isinstance(gates[1:4], tuple) and len(gates[1:4]) == 3
    assert gates[::-1] == tuple(reversed(tuple(gates)))
    with pytest.raises(IndexError):
        gates[len(gates)]
    for column in (gates.kind, gates.control, gates.target, gates.angle):
        with pytest.raises(ValueError):
            column[0] = 0


def test_columns_round_trip_gate_values():
    gates = columns_of(MIXED)
    assert gates.kind.tolist() == [F_CODE, CNOT_CODE, 2, ROT_CODE, ROT_CODE]
    assert gates.control.tolist() == [1, 3, 2, 0, 0]
    assert tuple(gates) == MIXED and gates == MIXED and MIXED == gates
    assert math.copysign(1.0, gates[3].angle) == -1.0  # -0.0 keeps its sign
    assert gates != MIXED[:-1] and gates != MIXED[:-1] + (ROT(1, 1.5),)
    assert gates.index(CZ(2, 3)) == 2 and CNOT(3, 1) in gates


def test_circuit_equality_and_hash_follow_the_gates():
    cz_level = MIXED[1:]
    a = Circuit(3, cz_level, Level.CZ_LEVEL)
    b = Circuit(3, columns_of(cz_level), Level.CZ_LEVEL)
    assert a == b and hash(a) == hash(b)
    c = Circuit(3, (ROT(3, 0.0),), Level.CZ_LEVEL)
    assert c == Circuit(3, (ROT(3, -0.0),), Level.CZ_LEVEL)
    assert hash(c) == hash(Circuit(3, (ROT(3, -0.0),), Level.CZ_LEVEL))
    assert a != Circuit(3, cz_level[:-1], Level.CZ_LEVEL)


@pytest.mark.parametrize(
    "columns, message",
    [
        (([7], [1], [2], [0.0]), "unknown gate kind"),
        (([CNOT_CODE], [2], [2], [0.0]), "must differ"),
        (([CNOT_CODE], [0], [2], [0.0]), "1-based"),
        (([CNOT_CODE], [1], [0], [0.0]), "1-based"),
        (([ROT_CODE], [1], [2], [0.5]), "no control"),
        (([F_CODE], [1], [2], [math.nan]), "finite"),
        (([ROT_CODE], [0], [2], [math.inf]), "finite"),
        (([CNOT_CODE], [1], [2], [0.5]), "no angle"),
        (([CNOT_CODE, CNOT_CODE], [1], [2], [0.0]), "equal length"),
        (([CNOT_CODE], [1], [2**40], [0.0]), "out of range"),
        # Values a cast would change: truncated, wrapped or parsed.
        (([CNOT_CODE], [1.7], [2], [0.0]), "control wires must be integers"),
        (([1.9], [1], [2], [0.0]), "gate kind codes must be integers"),
        (([ROT_CODE], [0], [2], ["0.5"]), "angles must be real"),
        (([ROT_CODE], [0], [2], [0.5 + 0j]), "angles must be real"),
        (([CNOT_CODE], np.array([2**32 + 2]), [1], [0.0]), "out of range"),
        ((np.array([258]), [1], [2], [0.0]), "out of range"),
    ],
)
def test_invalid_columns_rejected(columns, message):
    with pytest.raises(ValueError, match=message):
        GateColumns(*columns)


def test_empty_columns_build():
    gates = GateColumns([], [], [], [])
    assert len(gates) == 0 and gates == ()
    assert gates.kind.dtype == np.uint8 and gates.angle.dtype == np.float64


def test_float_wire_of_a_gate_is_rejected():
    gate = Gate("CNOT", 2.5, 1)
    with pytest.raises(ValueError, match="target wires must be integers"):
        Circuit(3, (gate,), Level.COMPOSITE)
    with pytest.raises(ValueError, match="target wires must be integers"):
        apply_gate(basis_state(3, "VHH"), gate)


def test_circuit_checks_its_level():
    with pytest.raises(ValueError, match="not a valid Level"):
        Circuit(2, (), "x")
    with pytest.raises(ValueError, match="not a valid Level"):
        Circuit(2, (CNOT(1, 2),), "x")
    circuit = Circuit(2, (CNOT(1, 2),), 2)
    assert circuit.level is Level.COMPOSITE
    assert repr(circuit) == "Circuit(n_qubits=2, level=COMPOSITE, gates=<1>)"


def test_circuit_checks_columns_against_level_and_size():
    with pytest.raises(ValueError, match="ROT gate not allowed at level COMPOSITE"):
        Circuit(3, columns_of((F(1, 2, 0.1), ROT(1, 0.1))), Level.COMPOSITE)
    with pytest.raises(ValueError, match="exceeds 2 qubits"):
        Circuit(2, columns_of((CNOT(1, 2), CNOT(3, 1))), Level.COMPOSITE)


def test_parse_reports_equal_wires_with_line_number():
    with pytest.raises(CircuitParseError, match="line 4: control and target must differ"):
        parse_circuit("wcircuit 1\nqubits 3\nCNOT 1 2\nF 3 3 0.5\n")


@pytest.mark.parametrize("n", [3, 4, 10, 1000])
def test_fusion_plan_merges_each_fan_in_layer(n):
    # n-1 couplers, the two single CNOTs of the 3-qubit base, and one op
    # per fan-in layer: 1,998 ops instead of 500,498 gates at n=1000.
    gates = build_w_circuit(n).gates
    starts = _fusion_plan(gates)
    assert len(starts) == 2 * n - 2
    assert starts[0] == 0 and np.all(np.diff(starts) > 0)


def test_fusion_plan_splits_on_target_and_kind():
    gates = columns_of(
        (CNOT(2, 1), CNOT(3, 1), CNOT(3, 2), ROT(1, 0.3), CNOT(2, 1), CNOT(2, 1))
    )
    assert _fusion_plan(gates).tolist() == [0, 2, 3, 4]
    assert _fusion_plan(columns_of(())).tolist() == []


def test_constructor_copies_caller_arrays():
    kind = np.array([CNOT_CODE], dtype=np.uint8)
    control = np.array([1], dtype=np.int32)
    target = np.array([2], dtype=np.int32)
    angle = np.zeros(1)
    view = control[:]
    gates = GateColumns(kind, control, target, angle)
    assert control.flags.writeable
    view[0] = 2  # would make control == target if the column were shared
    control[0] = 3
    assert gates[0] == CNOT(1, 2)
