"""Resource estimation, feasibility modeling, and angle-sensitivity studies.

Resource reports are arithmetic on the closed-form gate counts of
base.predicted_counts: no circuit is built, so they answer at any n in
constant time and memory.  Success probabilities are computed and reported
in the log10 domain: (1/9)**5048 underflows any float format, so linear
values are attached only when they are at least 1e-300.  Sensitivity
perturbations are specified in physical plate-angle degrees (the
experimenter's knob) and converted internally to a mixing-angle shift of 4x
the plate shift.

Reports and tables are plain Python over the closed forms of base, so they
run without loading numpy.  The simulator and synthesis names that
angle_sensitivity uses are bound as globals of this module on first use
(base._binder): angle_sensitivity calls _load() first, and a read of one of
them from outside the module, such as a wrapper being installed, binds them
too and keeps whatever wrapper is set.
"""
from __future__ import annotations

import math
from collections.abc import Iterator
from dataclasses import dataclass, replace

from .base import (CountPrediction, _binder, _counts, _coupler_alpha, _qubit_count,
                   _require_rows, _require_size, predicted_counts)

# The numpy-backed names, bound by _load() on first use (see base._binder).
# Circuit, lower and build_w_circuit are unused here: wbench/tracer.py wraps
# them by name in this module, so they stay importable from it.
_load, __getattr__ = _binder(globals(), {
    "gates": ("Circuit",),
    "lowering": ("lower",),
    "simulator": ("basis_state", "fidelity", "resolve_backend", "run", "w_reference"),
    "synthesis": ("WNetwork", "build_w_circuit"),
})

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
        # A NaN fidelity fails too, where `fidelity < threshold` would pass it.
        return not self.fidelity >= threshold


def resource_report(n: int, gate_success_prob: float = DEFAULT_GATE_SUCCESS) -> ResourceReport:
    """Gate counts plus the log10 probability that every elementary CNOT
    succeeds, from the closed forms alone: lowering turns each F into
    ROT ROT CNOT ROT ROT and leaves every CNOT in place, so the elementary
    circuit has exactly total_two_qubit CNOTs (the tests lower to check)."""
    if not 0.0 < gate_success_prob <= 1.0:
        raise ValueError(f"gate success probability must be in (0, 1], got {gate_success_prob}")
    n = _require_size(n)
    pred = predicted_counts(n)
    elementary_cnots = pred.total_two_qubit
    log10_p = elementary_cnots * math.log10(gate_success_prob)
    linear = gate_success_prob**elementary_cnots if log10_p >= LINEAR_PROBABILITY_FLOOR else None
    return ResourceReport(n, pred, elementary_cnots, gate_success_prob, log10_p, linear)


def pdc_rates(n: int, model: PdcModel) -> tuple[float, float]:
    """(log10 desired-event rate, log10 error rate) for n source photons:
    gamma**n and gamma**n * delta."""
    n = _require_size(n)
    desired = n * math.log10(model.gamma)
    return desired, desired + math.log10(model.delta)


def _table_size(n_max: int) -> int:
    """n_max as a plain int, once it is >= 3 and rows 3..n_max fit ROW_CAP."""
    n_max = _qubit_count(n_max)
    if n_max < 3:
        raise ValueError(f"need n_max >= 3, got {n_max}")
    _require_rows(n_max - 2, f"the table to n_max={n_max}")
    return n_max


def plate_angle_table(n_max: int) -> Iterator[tuple[int, float]]:
    """(n, first-plate angle arccos(1/sqrt(n))/4 in degrees) for n = 3..n_max."""
    n_max = _table_size(n_max)  # when called, not at the first row
    return ((n, math.degrees(_coupler_alpha(n, 1) / 4.0)) for n in range(3, n_max + 1))


def gate_growth_table(n_max: int) -> Iterator[tuple[int, int, int, int]]:
    """(n, total, f_count, cnot_count) for n = 3..n_max."""
    n_max = _table_size(n_max)  # when called, not at the first row
    return ((n, *_counts(n)) for n in range(3, n_max + 1))


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
    _load()
    network = WNetwork(n, gate_position)  # checks the size, then the position
    n = network.n_qubits
    deltas = sorted(delta_degrees)  # once: an iterator is spent after one pass
    for d in deltas:
        if not math.isfinite(d):
            raise ValueError("perturbations must be finite")
    backend = resolve_backend(n, backend)
    input_state = basis_state(n, "V" + "H" * (n - 1), backend=backend)
    reference = w_reference(n)
    records = []
    for d in deltas:
        shifted = replace(network, shift=4.0 * math.radians(d))  # plate -> mixing angle
        out = run(shifted, input_state)
        records.append(SensitivityRecord(n, network.position, d, fidelity(out, reference)))
    return records
