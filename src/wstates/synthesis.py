"""Constructs the recursive W-state preparation circuit and its closed forms.

The n-qubit network (n >= 3) is defined by enhancement: the 3-qubit base

    F(1,2, arccos(1/sqrt(3))), CNOT(2,1), F(2,3, pi/4), CNOT(3,2)

and, for each step up from n-1 to n qubits, a leading F(1,2, arccos(1/sqrt(n)))
followed by the previous network shifted down one wire, followed by a layer
CNOT(k,1) for k = 2..n.  Each enhancement adds exactly n two-qubit gates,
giving (n(n+1) - 4)/2 gates in total: n-1 F couplers and (n-2)(n+1)/2 CNOTs.

The unrolled order is written down once, in base._network_ops, as a stream
of 2n-2 ops: F couplers F(j, j+1) for j = 1..n-3, the shifted 3-qubit base
on wires n-2..n, then the CNOT fan-in layers from the innermost enhancement
outward, one op with a range of controls per layer.  WNetwork.ops() yields
that stream with each range as an int32 arange; run() takes it as it is, in
O(n) memory, and build_w_circuit expands it into gate columns, with no
per-gate Python work, for the verbs that need the gates themselves.  The
network's wcircuit text is written from the same stream by
base._network_text, which `synth` emits without loading numpy.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .base import (
    CNOT_CODE,
    Level,
    _coupler_alpha,
    _network_ops,
    _qubit_count,
    _require_size,
    predicted_counts,
)
from .gates import Circuit, GateColumns


@dataclass(frozen=True, slots=True)
class ScheduleEntry:
    """Rotation parameters of the coupler F(j, j+1).

    alpha is the mixing angle; plate_angle = alpha/4 is the setting of each
    of the two inner half-wave plates once the coupler is decomposed
    (two plates at beta conjugating a CZ realize R(2*beta)).
    """

    position: tuple[int, int]
    alpha: float
    plate_angle: float


@dataclass(frozen=True, slots=True)
class AngleSchedule:
    n: int
    entries: tuple[ScheduleEntry, ...]


def angle_schedule(n: int) -> AngleSchedule:
    """Mixing and plate angles of the n-1 couplers, ordered by position.

    Coupler F(j, j+1) carries alpha_j = arccos(1/sqrt(n - j + 1)): the
    amplitudes it splits off are 1/sqrt(k) and sqrt((k-1)/k) for
    k = n - j + 1, which telescope into the uniform 1/sqrt(n) weights.
    """
    n = _require_size(n)
    entries = []
    for j in range(1, n):
        alpha = _coupler_alpha(n, j)
        entries.append(ScheduleEntry((j, j + 1), alpha, alpha / 4.0))
    return AngleSchedule(n, tuple(entries))


@dataclass(frozen=True, slots=True)
class WNetwork:
    """The ops of build_w_circuit(n), from the closed form, with no gate
    columns; run() takes the network as it is.  shift is added to the mixing
    angle of the coupler F(position, position + 1).  level, gates (expanded
    on each read) and gate_counts() answer as the built circuit's would."""

    n_qubits: int
    position: int = 1
    shift: float = 0.0
    level = Level.COMPOSITE

    def __post_init__(self):
        n = _require_size(self.n_qubits)
        position = _qubit_count(self.position, "gate position")
        if not 1 <= position <= n - 1:
            raise ValueError(f"gate position must be in [1, {n - 1}], got {position}")
        if not (isinstance(self.shift, numbers.Real) and math.isfinite(self.shift)):
            raise ValueError(f"angle shift must be a finite real, got {self.shift!r}")
        object.__setattr__(self, "n_qubits", n)
        object.__setattr__(self, "position", position)
        object.__setattr__(self, "shift", float(self.shift))

    def ops(self):
        """(kind code, control, target, angle) per op, as in Circuit.ops():
        base._network_ops with each run's controls as an int32 arange."""
        for kind, control, target, angle in _network_ops(self.n_qubits, self.position,
                                                         self.shift):
            if kind == CNOT_CODE:
                control = np.arange(control.start, control.stop, dtype=np.int32)
            yield kind, control, target, angle

    @property
    def gates(self) -> GateColumns:
        """The ops expanded into gate columns, one row per gate."""
        size = predicted_counts(self.n_qubits).total_two_qubit
        kind, angle = np.full(size, CNOT_CODE, np.uint8), np.zeros(size)
        control, target = np.empty(size, np.int32), np.empty(size, np.int32)
        row = 0
        for k, c, t, a in self.ops():
            if k == CNOT_CODE:  # a run: one row per control
                control[row : row + len(c)], target[row : row + len(c)] = c, t
            else:
                kind[row], control[row], target[row], angle[row] = k, c, t, a
            row += len(c) if k == CNOT_CODE else 1
        return GateColumns._adopt(kind, control, target, angle)

    def gate_counts(self) -> dict[str, int]:
        counts = predicted_counts(self.n_qubits)
        return {"F": counts.f_gates, "CNOT": counts.cnot_gates}


def build_w_circuit(n: int) -> Circuit:
    """The composite-level n-qubit W-state preparation circuit: the ops of
    WNetwork(n), expanded into gate columns."""
    network = WNetwork(n)
    return Circuit(network.n_qubits, network.gates)
