"""Unitary-preserving rewrites from composite gates down to ROT + CNOT.

Levels descend COMPOSITE -> CZ_LEVEL -> ELEMENTARY.  Each pass rewrites
gates in place, preserving order, by one repeat-and-fill over the gate
columns.  lower() holds the only copy of each rule; lowering a one-gate
circuit shows that gate's decomposition.  Adjacent ROTs are deliberately
not merged, so a fully lowered F gate keeps the 4-plates-plus-CNOT structure
[ROT, ROT, CNOT, ROT, ROT] on its target wire.
"""
from __future__ import annotations

import math

import numpy as np

from .base import CNOT_CODE, CZ_CODE, F_CODE, ROT_CODE, Level
from .gates import Circuit, GateColumns


def _rewrite(circuit: Circuit, code: int, middle: int, plate) -> Circuit:
    """Replace every `code` gate (c, t) by [ROT(t, p), middle(c, t), ROT(t, p)],
    where p = plate(angles of the replaced gates), in one pass over the columns."""
    cols = circuit.gates
    hit = cols.kind == code
    reps = np.where(hit, 3, 1)
    at = np.flatnonzero(hit)
    first = at + 2 * np.arange(at.size)  # output row of each replaced gate
    kind, control, target, angle = (
        np.repeat(c, reps) for c in (cols.kind, cols.control, cols.target, cols.angle)
    )
    plates = plate(cols.angle[hit])
    for row in (first, first + 2):
        kind[row] = ROT_CODE
        control[row] = 0
        angle[row] = plates
    kind[first + 1] = middle
    angle[first + 1] = 0.0
    return Circuit(circuit.n_qubits, GateColumns._adopt(kind, control, target, angle))


def lower(circuit: Circuit, target: Level) -> Circuit:
    """Rewrite the circuit down to the target level (pure; idempotent)."""
    target = Level(target)
    if target > circuit.level:
        raise ValueError(
            f"invalid lowering: {circuit.level.name} cannot be raised "
            f"to {target.name}"
        )
    result = circuit
    if result.level == Level.COMPOSITE and target < Level.COMPOSITE:
        # F(c,t,alpha) = ROT(t,alpha/2) CZ(c,t) ROT(t,alpha/2), since R(b) Z R(b)
        # = R(2b) on the control=1 block and R(b)**2 = I elsewhere.
        result = _rewrite(result, F_CODE, CZ_CODE, lambda a: a / 2.0)
    if result.level == Level.CZ_LEVEL and target < Level.CZ_LEVEL:
        # CZ(c,t) = ROT(t,pi/4) CNOT(c,t) ROT(t,pi/4), since H X H = Z.
        result = _rewrite(result, CZ_CODE, CNOT_CODE, lambda a: math.pi / 4)
    return result
