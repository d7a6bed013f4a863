"""Deterministic W-state preparation: synthesis, lowering, simulation, analysis.

The package imports none of its submodules itself: each public name, and
each submodule, is imported on first use, so `import wstates` and the
closed-form verbs of wstates.cli run without loading numpy.
"""
import importlib

__version__ = "0.1.0"

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "analysis": (
        "FAILURE_FIDELITY_THRESHOLD",
        "PdcModel",
        "ResourceReport",
        "SensitivityRecord",
        "angle_sensitivity",
        "gate_growth_table",
        "pdc_rates",
        "plate_angle_table",
        "resource_report",
    ),
    "base": ("CountPrediction", "Level", "predicted_counts"),
    "circuit_io": ("load_circuit", "parse_circuit", "save_circuit", "serialize_circuit"),
    "errors": ("CapacityError", "CircuitParseError"),
    "gates": (
        "CNOT",
        "CZ",
        "Circuit",
        "F",
        "Gate",
        "GateColumns",
        "ROT",
        "gate_matrix",
        "rotation_matrix",
        "unitary_of",
    ),
    "lowering": ("lower",),
    "simulator": (
        "QuantumState",
        "basis_state",
        "bits_of",
        "dump_state",
        "encode_bits",
        "fidelity",
        "run",
        "w_reference",
    ),
    "synthesis": (
        "AngleSchedule",
        "ScheduleEntry",
        "WNetwork",
        "angle_schedule",
        "build_w_circuit",
    ),
}
_SUBMODULES = frozenset({*_EXPORTS, "cli"})  # those that define a public name, and cli
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    if name in _SUBMODULES:  # the import binds it as an attribute of the package
        return importlib.import_module(f".{name}", __name__)
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
