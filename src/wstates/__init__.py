"""Deterministic W-state preparation: synthesis, lowering, simulation, analysis."""

from .analysis import (
    FAILURE_FIDELITY_THRESHOLD,
    PdcModel,
    ResourceReport,
    SensitivityRecord,
    angle_sensitivity,
    gate_growth_table,
    pdc_rates,
    plate_angle_table,
    resource_report,
)
from .circuit_io import (
    load_circuit,
    parse_circuit,
    save_circuit,
    serialize_circuit,
)
from .errors import CapacityError, CircuitParseError
from .gates import (
    CNOT,
    CZ,
    Circuit,
    F,
    Gate,
    GateColumns,
    Level,
    ROT,
    gate_matrix,
    rotation_matrix,
    unitary_of,
)
from .lowering import lower
from .simulator import (
    QuantumState,
    basis_state,
    bits_of,
    dump_state,
    encode_bits,
    fidelity,
    run,
    w_reference,
)
from .synthesis import (
    AngleSchedule,
    CountPrediction,
    ScheduleEntry,
    angle_schedule,
    build_w_circuit,
    predicted_counts,
)

__version__ = "0.1.0"

__all__ = [
    "AngleSchedule",
    "CNOT",
    "CZ",
    "CapacityError",
    "Circuit",
    "CircuitParseError",
    "CountPrediction",
    "F",
    "FAILURE_FIDELITY_THRESHOLD",
    "Gate",
    "GateColumns",
    "Level",
    "PdcModel",
    "QuantumState",
    "ROT",
    "ResourceReport",
    "ScheduleEntry",
    "SensitivityRecord",
    "angle_schedule",
    "angle_sensitivity",
    "basis_state",
    "bits_of",
    "build_w_circuit",
    "dump_state",
    "encode_bits",
    "fidelity",
    "gate_growth_table",
    "gate_matrix",
    "load_circuit",
    "lower",
    "parse_circuit",
    "pdc_rates",
    "plate_angle_table",
    "predicted_counts",
    "resource_report",
    "rotation_matrix",
    "run",
    "save_circuit",
    "serialize_circuit",
    "unitary_of",
    "w_reference",
]
