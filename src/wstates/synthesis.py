"""Constructs the recursive W-state preparation circuit and its closed forms.

The n-qubit network (n >= 3) is defined by enhancement: the 3-qubit base

    F(1,2, arccos(1/sqrt(3))), CNOT(2,1), F(2,3, pi/4), CNOT(3,2)

and, for each step up from n-1 to n qubits, a leading F(1,2, arccos(1/sqrt(n)))
followed by the previous network shifted down one wire, followed by a layer
CNOT(k,1) for k = 2..n.  Each enhancement adds exactly n two-qubit gates,
giving (n(n+1) - 4)/2 gates in total: n-1 F couplers and (n-2)(n+1)/2 CNOTs.

build_w_circuit emits the fully unrolled gate sequence directly instead of
recursing, so building stays O(total gates) with no per-gate Python work and
is safe at n in the thousands.  The unrolled order is: F couplers F(j, j+1)
for j = 1..n-3, the shifted 3-qubit base on wires n-2..n, then the CNOT
fan-in layers from the innermost enhancement outward, one arange of controls
per layer.
"""
from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .gates import CNOT_CODE, F_CODE, Circuit, GateColumns, Level, _qubit_count


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


@dataclass(frozen=True, slots=True)
class CountPrediction:
    """Closed-form two-qubit gate counts for the n-qubit network."""

    total_two_qubit: int
    f_gates: int
    cnot_gates: int


N_MAX = math.isqrt(2 * int(sys.float_info.max))  # largest n whose ~n**2/2 gates are a float


def _require_size(n: int) -> int:
    """n as a plain int, once it is a size the network is defined for."""
    n = _qubit_count(n)
    if n < 3:
        raise ValueError(f"unsupported size: need n >= 3, got {n}")
    if n > N_MAX:
        raise ValueError(f"unsupported size: need n <= {N_MAX:.4g}, whose gate count is a float")
    return n


def _coupler_alpha(n: int, j: int) -> float:
    # Last coupler is the controlled Hadamard; emit pi/4 itself rather than
    # arccos(1/sqrt(2)), which differs by one ulp.
    if j == n - 1:
        return math.pi / 4
    return math.acos(1.0 / math.sqrt(n - j + 1))


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


def predicted_counts(n: int) -> CountPrediction:
    n = _require_size(n)
    total = (n * (n + 1) - 4) // 2
    return CountPrediction(total, n - 1, (n - 2) * (n + 1) // 2)


def build_w_circuit(n: int) -> Circuit:
    """The composite-level n-qubit W-state preparation circuit."""
    n = _require_size(n)
    size = predicted_counts(n).total_two_qubit
    kind = np.full(size, CNOT_CODE, dtype=np.uint8)
    angle = np.zeros(size)
    # Head, n+1 gates: F(j, j+1) for j = 1..n-2, CNOT(n-1, n-2), F(n-1, n),
    # CNOT(n, n-1).  Then the fan-in layers, innermost enhancement first:
    # CNOT(m, t) for m = t+1..n, t = n-3..1.  Within a layer the CNOTs
    # commute (shared target, disjoint controls) and ascend for stable output.
    kind[: n - 2] = kind[n - 1] = F_CODE
    layer_target = np.arange(n - 3, 0, -1, dtype=np.int32)
    layers = (np.arange(t + 1, n + 1, dtype=np.int32) for t in layer_target.tolist())
    control = np.concatenate([[*range(1, n - 1), n - 1, n - 1, n], *layers], dtype=np.int32)
    target = np.concatenate([[*range(2, n), n - 2, n, n - 1],
                             np.repeat(layer_target, n - layer_target)], dtype=np.int32)
    alphas = [_coupler_alpha(n, j) for j in range(1, n)]
    angle[: n - 2] = alphas[:-1]
    angle[n - 1] = alphas[-1]
    return Circuit(n, GateColumns._adopt(kind, control, target, angle), Level.COMPOSITE)
