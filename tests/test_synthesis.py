"""Construction of the W-preparation network and its closed forms."""
import math

import pytest

from wstates import (
    CNOT,
    Circuit,
    F,
    Gate,
    Level,
    angle_schedule,
    build_w_circuit,
    predicted_counts,
)

TABLE_COUNTS = {3: (4, 2, 2), 4: (8, 3, 5), 5: (13, 4, 9), 6: (19, 5, 14), 7: (26, 6, 20)}


def test_three_qubit_base_circuit():
    expected = (
        F(1, 2, math.acos(1 / math.sqrt(3))),
        CNOT(2, 1),
        F(2, 3, math.pi / 4),
        CNOT(3, 2),
    )
    assert build_w_circuit(3).gates == expected


def test_four_qubit_circuit_shape():
    c = build_w_circuit(4)
    assert len(c.gates) == 8
    assert c.gates[0] == F(1, 2, math.acos(0.5))
    assert c.gates[-3:] == (CNOT(2, 1), CNOT(3, 1), CNOT(4, 1))


def test_seven_qubit_counts():
    counts = build_w_circuit(7).gate_counts()
    assert (len(build_w_circuit(7).gates), counts["F"], counts["CNOT"]) == (26, 6, 20)


@pytest.mark.parametrize("n,expected", sorted(TABLE_COUNTS.items()))
def test_predicted_counts_small(n, expected):
    pred = predicted_counts(n)
    assert (pred.total_two_qubit, pred.f_gates, pred.cnot_gates) == expected
    assert pred.total_two_qubit == pred.f_gates + pred.cnot_gates


def test_predicted_counts_n100():
    # (100 * 101 - 4) / 2, cross-checked constructively below.
    pred = predicted_counts(100)
    assert pred.total_two_qubit == 5048
    assert len(build_w_circuit(100).gates) == 5048


@pytest.mark.parametrize("n", [*range(3, 101), 137, 200, 800])
def test_constructive_counts_match_closed_form(n):
    circuit = build_w_circuit(n)
    counts = circuit.gate_counts()
    pred = predicted_counts(n)
    assert len(circuit.gates) == pred.total_two_qubit
    assert counts["F"] == pred.f_gates == n - 1
    assert counts["CNOT"] == pred.cnot_gates == (n - 2) * (n + 1) // 2


@pytest.mark.parametrize("n", range(4, 61))
def test_each_enhancement_adds_n_gates(n):
    assert len(build_w_circuit(n).gates) - len(build_w_circuit(n - 1).gates) == n


def _shift(gates, offset):
    out = []
    for g in gates:
        control = None if g.control is None else g.control + offset
        out.append(Gate(g.kind, g.target + offset, control, g.angle))
    return tuple(out)


@pytest.mark.parametrize("n", range(4, 13))
def test_enhancement_recursion_structure(n):
    # size n = leading coupler + shifted size n-1 network + CNOT fan-in.
    inner = _shift(build_w_circuit(n - 1).gates, 1)
    head = (F(1, 2, math.acos(1 / math.sqrt(n))),)
    tail = tuple(CNOT(k, 1) for k in range(2, n + 1))
    assert build_w_circuit(n).gates == head + inner + tail


@pytest.mark.parametrize("n", [3, 4, 7, 12, 40])
def test_coupler_positions_and_fan_in_targets(n):
    circuit = build_w_circuit(n)
    for g in circuit.gates:
        if g.kind == "F":
            assert g.target == g.control + 1
        else:
            assert g.control > g.target  # every CNOT fans back up the wires
    if n >= 4:  # the 3-qubit base has no fan-in layer of its own
        assert circuit.gates[-(n - 1):] == tuple(CNOT(k, 1) for k in range(2, n + 1))


def test_angle_schedule_n3():
    schedule = angle_schedule(3)
    assert [e.alpha for e in schedule.entries] == [
        math.acos(1 / math.sqrt(3)),
        math.pi / 4,
    ]
    assert [e.position for e in schedule.entries] == [(1, 2), (2, 3)]


@pytest.mark.parametrize("n", [3, 4, 5, 10, 64, 200])
def test_angle_schedule_invariants(n):
    schedule = angle_schedule(n)
    assert len(schedule.entries) == n - 1
    alphas = [e.alpha for e in schedule.entries]
    for j, entry in enumerate(schedule.entries, start=1):
        assert entry.position == (j, j + 1)
        assert abs(math.cos(entry.alpha) - 1 / math.sqrt(n - j + 1)) < 1e-14
        assert entry.plate_angle == entry.alpha / 4
    assert all(a > b for a, b in zip(alphas, alphas[1:]))
    assert alphas[-1] == math.pi / 4


def test_first_plate_angles():
    assert abs(math.degrees(angle_schedule(4).entries[0].plate_angle) - 15.0) < 1e-12
    plate200 = math.degrees(angle_schedule(200).entries[0].plate_angle)
    assert abs(plate200 - 21.486298193000728) < 1e-9


@pytest.mark.parametrize("n", [3, 5, 9, 30])
def test_schedule_matches_circuit_angles(n):
    by_position = {
        g.control: g.angle for g in build_w_circuit(n).gates if g.kind == "F"
    }
    for entry in angle_schedule(n).entries:
        assert by_position[entry.position[0]] == entry.alpha


@pytest.mark.parametrize("n", [2, 1, 0, -4])
def test_sizes_below_three_rejected(n):
    with pytest.raises(ValueError, match="unsupported size"):
        build_w_circuit(n)
    with pytest.raises(ValueError, match="unsupported size"):
        angle_schedule(n)
    with pytest.raises(ValueError, match="unsupported size"):
        predicted_counts(n)


def test_build_is_pure():
    assert build_w_circuit(6) == build_w_circuit(6)
    assert build_w_circuit(6).level == Level.COMPOSITE
    assert isinstance(build_w_circuit(6), Circuit)
