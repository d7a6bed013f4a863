"""Resource estimation, feasibility modeling, and angle-sensitivity studies.

Resource reports are arithmetic on the closed-form gate counts of
synthesis.predicted_counts: no circuit is built, so they answer at any n in
constant time and memory.  Success probabilities are computed and reported
in the log10 domain: (1/9)**5048 underflows any float format, so linear
values are attached only when they are at least 1e-300.  Sensitivity
perturbations are specified in physical plate-angle degrees (the
experimenter's knob) and converted internally to a mixing-angle shift of 4x
the plate shift.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .gates import F_CODE, Circuit, GateColumns
from .lowering import lower  # unused here; wbench/tracer.py wraps analysis.lower
from .simulator import basis_state, fidelity, resolve_backend, run, w_reference
from .synthesis import (CountPrediction, _coupler_alpha, _require_size, build_w_circuit,
                        predicted_counts)

DEFAULT_GATE_SUCCESS = 1.0 / 9.0
DEFAULT_EXTRA_PAIR_RATE = 1e-4
DEFAULT_DELTAS = (0.0, 0.1, 0.2, 0.5, 1.0, 2.0)  # plate-angle offsets, degrees
FAILURE_FIDELITY_THRESHOLD = 0.99
LINEAR_PROBABILITY_FLOOR = -300.0  # log10 cutoff below which only logs are kept


@dataclass(frozen=True, slots=True)
class ResourceReport:
    n: int
    counts: CountPrediction
    elementary_cnots: int
    gate_success_prob: float
    log10_success_probability: float
    success_probability: float | None


@dataclass(frozen=True, slots=True)
class PdcModel:
    """Down-conversion photon source: single-photon rate gamma, extra-pair
    rate delta."""

    gamma: float
    delta: float = DEFAULT_EXTRA_PAIR_RATE

    def __post_init__(self):
        if not 0.0 < self.gamma <= 1.0:
            raise ValueError(f"gamma must be in (0, 1], got {self.gamma}")
        if not 0.0 < self.delta < 1.0:
            raise ValueError(f"delta must be in (0, 1), got {self.delta}")


@dataclass(frozen=True, slots=True)
class SensitivityRecord:
    n: int
    perturbed_gate_position: int
    delta_plate_angle: float  # degrees
    fidelity: float

    def failed(self, threshold: float = FAILURE_FIDELITY_THRESHOLD) -> bool:
        return self.fidelity < threshold


def resource_report(n: int, gate_success_prob: float = DEFAULT_GATE_SUCCESS) -> ResourceReport:
    """Gate counts plus the log10 probability that every elementary CNOT
    succeeds, from the closed forms alone: lowering turns each F into
    ROT ROT CNOT ROT ROT and leaves every CNOT in place, so the elementary
    circuit has exactly total_two_qubit CNOTs (the tests lower to check)."""
    if not 0.0 < gate_success_prob <= 1.0:
        raise ValueError(f"gate success probability must be in (0, 1], got {gate_success_prob}")
    pred = predicted_counts(n)
    elementary_cnots = pred.total_two_qubit
    log10_p = elementary_cnots * math.log10(gate_success_prob)
    linear = gate_success_prob**elementary_cnots if log10_p >= LINEAR_PROBABILITY_FLOOR else None
    return ResourceReport(n, pred, elementary_cnots, gate_success_prob, log10_p, linear)


def pdc_rates(n: int, model: PdcModel) -> tuple[float, float]:
    """(log10 desired-event rate, log10 error rate) for n source photons:
    gamma**n and gamma**n * delta."""
    _require_size(n)
    desired = n * math.log10(model.gamma)
    return desired, desired + math.log10(model.delta)


def plate_angle_table(n_max: int) -> list[tuple[int, float]]:
    """First-plate angle arccos(1/sqrt(n))/4 in degrees for n = 3..n_max."""
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")
    return [(n, math.degrees(_coupler_alpha(n, 1) / 4.0)) for n in range(3, n_max + 1)]


def gate_growth_table(n_max: int) -> list[tuple[int, int, int, int]]:
    """(n, total, f_count, cnot_count) rows for n = 3..n_max."""
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")
    rows = []
    for n in range(3, n_max + 1):
        pred = predicted_counts(n)
        rows.append((n, pred.total_two_qubit, pred.f_gates, pred.cnot_gates))
    return rows


def _perturbed_circuit(base: Circuit, position: int, delta_degrees: float) -> Circuit:
    shift = 4.0 * math.radians(delta_degrees)  # plate shift -> mixing angle
    cols = base.gates
    angle = cols.angle.copy()
    angle[(cols.kind == F_CODE) & (cols.control == position)] += shift
    gates = GateColumns._adopt(cols.kind, cols.control, cols.target, angle)
    return Circuit(base.n_qubits, gates, base.level)


def angle_sensitivity(
    n: int,
    gate_position: int = 1,
    delta_degrees=DEFAULT_DELTAS,
    *,
    backend: str = "auto",
) -> list[SensitivityRecord]:
    """Fidelity against the W target when one coupler's plate angle is off.

    gate_position j picks the coupler F(j, j+1); each delta (degrees) is
    applied to its plate angle, the whole circuit is re-simulated from
    |VH...H>, and the resulting fidelity recorded.  Records come back
    sorted by delta.
    """
    _require_size(n)  # before the position check reads n
    if not 1 <= gate_position <= n - 1:
        raise ValueError(
            f"gate position must be in [1, {n - 1}], got {gate_position}"
        )
    for d in delta_degrees:
        if not math.isfinite(d):
            raise ValueError("perturbations must be finite")
    backend = resolve_backend(n, backend)
    base = build_w_circuit(n)
    input_state = basis_state(n, "V" + "H" * (n - 1), backend=backend)
    reference = w_reference(n)
    records = []
    for d in sorted(delta_degrees):
        circuit = _perturbed_circuit(base, gate_position, d)
        out = run(circuit, input_state)
        records.append(SensitivityRecord(n, gate_position, d, fidelity(out, reference)))
    return records
