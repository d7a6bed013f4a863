"""The numpy-free names every module shares, and the binder of the rest.

Everything here is plain Python: the gate kind codes, the lowering levels,
the wcircuit header, the size and row caps and their checks, _blocks (the
block writer of the CSV tables and state dumps), _emit (the one writer of
every output: each verb's text and save_circuit's file), and the network's
closed forms (gate counts, coupler angles, the gate order _network_ops and
the network's wcircuit text _network_text, which `synth` writes).  The
`synth`, `analyze`, `growth` and `angles` verbs need nothing else, so they
run without loading numpy.  These names are defined only here, and each
module imports from here the ones it uses.

cli and analysis also hold numpy-backed names (build_w_circuit, run, ...).
They get them through _binder, which binds them as module globals on first
use: a verb that needs them calls load() first, and a read of one of them
from outside the module (getattr, `from ... import`, monkeypatch) loads them
through the module's __getattr__.  A name already bound, such as a wrapper
set before the first load, is kept.
"""
from __future__ import annotations

import contextlib
import enum
import importlib
import math
import operator
import sys
from dataclasses import dataclass
from itertools import islice

from .errors import CapacityError

GATE_KINDS = ("F", "CNOT", "CZ", "ROT")
F_CODE, CNOT_CODE, CZ_CODE, ROT_CODE = range(len(GATE_KINDS))

MAX_QUBITS = 2**31 - 1  # gate columns hold wire indices as int32
# Most rows `synth`, `angles` and `growth` write: the gates `synth` emits
# (n = 2047 at most) or the lines of a table; past it they exit 3 before
# building, so each of them takes a few seconds at most (the README has the
# times).  `lower` has no cap of its own: lowering the n = 2047 circuit to
# elementary writes 2,104,310 rows.
ROW_CAP = 1 << 21
_WRITE_BLOCK = 4096  # lines a writer lays out or joins at a time
_HEADER, _VERSION = "wcircuit", "1"  # a wcircuit file's first line


def _blocks(lines):
    """The LF-terminated lines, joined _WRITE_BLOCK at a time."""
    lines = iter(lines)
    while block := "".join(islice(lines, _WRITE_BLOCK)):
        yield block


def _emit(chunks, out) -> None:
    """Write the text chunks, UTF-8 with LF line ends, to the file out (a str
    or a Path) or, when out is None, to sys.stdout as it is at the call."""
    with (open(out, "w", encoding="utf-8", newline="\n") if out is not None
          else contextlib.nullcontext(sys.stdout)) as fh:
        fh.writelines(chunks)


class Level(enum.IntEnum):
    """Lowering levels, ordered ELEMENTARY < CZ_LEVEL < COMPOSITE."""

    ELEMENTARY = 0
    CZ_LEVEL = 1
    COMPOSITE = 2


def _qubit_count(n, what: str = "qubit count") -> int:
    """n as a plain int; ValueError naming what n is if it is not an integer."""
    try:
        return operator.index(n)
    except TypeError:
        raise ValueError(f"{what} {n!r} is not an integer") from None


def _require_rows(rows: int, what: str) -> None:
    """CapacityError if what, with this many rows, would pass ROW_CAP."""
    if rows > ROW_CAP:
        raise CapacityError(f"{what} has {rows} rows, above the cap of {ROW_CAP}")


# --- the network's closed forms ---------------------------------------------

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


def _counts(n: int) -> tuple[int, int, int]:
    """(total two-qubit, F, CNOT) gate counts of the network on n >= 3 qubits."""
    return (n * (n + 1) - 4) // 2, n - 1, (n - 2) * (n + 1) // 2


def predicted_counts(n: int) -> CountPrediction:
    return CountPrediction(*_counts(_require_size(n)))


def _network_ops(n: int, position: int = 1, shift: float = 0.0):
    """The gates of the network on n >= 3 qubits, in order, as ops (kind
    code, control, target, angle): an F with an int control, a CNOT run with
    a range of controls.  shift is added to the angle of F(position,
    position + 1)."""
    alpha = [0.0, *(_coupler_alpha(n, j) for j in range(1, n))]  # of F(j, j+1)
    alpha[position] += shift  # the same bits as a float64 column add
    # Head, n+1 gates: F(j, j+1) for j = 1..n-2, CNOT(n-1, n-2), F(n-1, n),
    # CNOT(n, n-1).  Then the fan-in layers, innermost enhancement first:
    # CNOT(m, t) for m = t+1..n, t = n-3..1.  Within a layer the CNOTs
    # commute (shared target, disjoint controls) and ascend for stable output.
    for j in range(1, n - 1):
        yield F_CODE, j, j + 1, alpha[j]
    yield CNOT_CODE, range(n - 1, n), n - 2, 0.0
    yield F_CODE, n - 1, n, alpha[n - 1]
    yield CNOT_CODE, range(n, n + 1), n - 1, 0.0
    for t in range(n - 3, 0, -1):
        yield CNOT_CODE, range(t + 1, n + 1), t, 0.0


def _network_text(n: int):
    """The wcircuit text of the network on n >= 3 qubits, in chunks, from
    its op stream: the header, one line per F, one join per CNOT run.  The
    same bytes as circuit_io.serialize_circuit(synthesis.build_w_circuit(n))."""
    digits = [str(k) for k in range(n + 1)]
    yield f"{_HEADER} {_VERSION}\nqubits {n}\n"
    for kind, control, target, angle in _network_ops(n):
        if kind == F_CODE:
            yield f"F {control} {target} {angle:.17g}\n"
        else:
            yield ("CNOT " + f" {target}\nCNOT ".join(digits[control.start : control.stop])
                   + f" {target}\n")


# --- names bound on first use -----------------------------------------------

def _binder(namespace: dict, table: dict[str, tuple[str, ...]]):
    """(load, __getattr__) for the module whose globals are namespace, over
    table {submodule of this package: names to bind from it}."""
    owned = {name for names in table.values() for name in names}

    def load() -> None:
        for module, names in table.items():
            missing = [name for name in names if name not in namespace]
            if missing:
                source = importlib.import_module(f".{module}", __package__)
                namespace.update((name, getattr(source, name)) for name in missing)

    def __getattr__(name: str):
        if name not in owned:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        load()
        return namespace[name]

    return load, __getattr__
