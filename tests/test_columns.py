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
    QuantumState,
    ROT,
    basis_state,
    build_w_circuit,
    parse_circuit,
    predicted_counts,
    run,
)
from wstates.gates import CNOT_CODE, F_CODE, ROT_CODE, columns_of


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
    a = Circuit(3, cz_level)
    b = Circuit(3, columns_of(cz_level))
    assert a == b and hash(a) == hash(b)
    c = Circuit(3, (ROT(3, 0.0),))
    assert c == Circuit(3, (ROT(3, -0.0),))
    assert hash(c) == hash(Circuit(3, (ROT(3, -0.0),)))
    assert a != Circuit(3, cz_level[:-1])


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
        # Past 64 bits numpy holds an int as an object: still out of range.
        (([CNOT_CODE], [1], [2**70], [0.0]), "target wires out of range for int32"),
        (([CNOT_CODE], [-(2**70)], [2], [0.0]), "control wires out of range for int32"),
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
        Circuit(3, (gate,))
    with pytest.raises(ValueError, match="target wires must be integers"):
        run(Circuit(3, (gate,)), basis_state(3, "VHH"))


def test_qubit_count_must_be_an_integer():
    for build in (
        lambda: Circuit(2.5, (Gate("CNOT", 1, 2),)),
        lambda: basis_state(2.0, "VH"),
        lambda: QuantumState(2.0, {1: 1.0}),
        lambda: QuantumState("2", np.array([0.0, 1.0, 0.0, 0.0])),
    ):
        with pytest.raises(ValueError, match="qubit count .* is not an integer"):
            build()
    circuit = Circuit(np.int64(3), (CNOT(1, 2),))
    state = basis_state(np.int32(3), "VHH", backend="sparse")
    assert type(circuit.n_qubits) is int and type(state.n) is int
    assert run(circuit, state).amplitudes == {0b110: 1.0}


def test_circuit_repr_names_its_derived_level():
    circuit = Circuit(2, (F(1, 2, 0.5), CNOT(1, 2)))
    assert circuit.level is Level.COMPOSITE
    assert repr(circuit) == "Circuit(n_qubits=2, level=COMPOSITE, gates=<2>)"
    with pytest.raises(TypeError):
        Circuit(2, (CNOT(1, 2),), Level.COMPOSITE)  # the level is not an argument


def test_circuit_checks_columns_against_level_and_size():
    with pytest.raises(ValueError, match=r"^gate kinds \['F', 'ROT'\] fit no lowering level$"):
        Circuit(3, columns_of((F(1, 2, 0.1), ROT(1, 0.1))))
    with pytest.raises(ValueError, match="exceeds 2 qubits"):
        Circuit(2, columns_of((CNOT(1, 2), CNOT(3, 1))))


def test_parse_reports_equal_wires_with_line_number():
    with pytest.raises(CircuitParseError, match="line 4: control and target must differ"):
        parse_circuit("wcircuit 1\nqubits 3\nCNOT 1 2\nF 3 3 0.5\n")


@pytest.mark.parametrize("n", [3, 4, 10, 1000])
def test_fusion_plan_merges_each_fan_in_layer(n):
    # n-1 couplers, the two single CNOTs of the 3-qubit base, and one op
    # per fan-in layer: 1,998 ops instead of 500,498 gates at n=1000.
    ops = list(build_w_circuit(n).ops())
    assert len(ops) == 2 * n - 2
    rows = sum(len(c) if k == CNOT_CODE else 1 for k, c, _, _ in ops)
    assert rows == predicted_counts(n).total_two_qubit


def test_fusion_plan_splits_on_target_and_kind():
    circuit = Circuit(
        3, (CNOT(2, 1), CNOT(3, 1), CNOT(3, 2), ROT(1, 0.3), CNOT(2, 1), CNOT(2, 1))
    )
    ops = list(circuit.ops())
    assert all(c.dtype == np.int32 for k, c, _, _ in ops if k == CNOT_CODE)
    assert [(k, np.atleast_1d(c).tolist(), t, a) for k, c, t, a in ops] == [
        (CNOT_CODE, [2, 3], 1, 0.0),
        (CNOT_CODE, [3], 2, 0.0),
        (ROT_CODE, [0], 1, 0.3),
        (CNOT_CODE, [2, 2], 1, 0.0),
    ]
    assert list(Circuit(3, ()).ops()) == []


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
