"""Reader and writer for the line-oriented "wcircuit v1" text format.

Layout (UTF-8, LF endings):

    wcircuit 1
    qubits <n>
    F <control> <target> <alpha>
    CNOT <control> <target>
    CZ <control> <target>
    ROT <qubit> <alpha>

Gate lines appear in application order with 1-based indices; angles are
decimal radians printed with 17 significant digits so floats round-trip
bit-exactly.  `#` starts a comment anywhere on a line; blank lines are
ignored.  Fields are separated by whitespace.  The qubit count and every
index are one or more ASCII digits: no sign, no `_`, no other script's
digits.  An angle is a finite decimal float in ASCII with no `_`, sign and
exponent allowed (`-0.5`, `1e+20`).  Parsing is strict: unknown keywords,
bad tokens, out-of-range indices, missing or extra fields, and gate kinds
that fit no lowering level are hard errors.

The format carries no lowering level: a Circuit reads its level off its
gate kinds (see gates.Circuit).
"""
from __future__ import annotations

import math

from .errors import CircuitParseError
from .gates import (
    CNOT_CODE,
    F_CODE,
    KIND_CODES,
    MAX_QUBITS,
    ROT_CODE,
    Circuit,
    GateColumns,
    Level,
)

_HEADER = "wcircuit"
_VERSION = "1"
_ARITY = {"F": 3, "CNOT": 2, "CZ": 2, "ROT": 2}


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit as wcircuit v1 text (trailing newline included).

    ELEMENTARY circuits annotate each ROT line with the physical
    half-wave-plate angle alpha/2, the knob an experimenter actually sets.
    """
    plate_comments = circuit.level == Level.ELEMENTARY
    lines = [f"{_HEADER} {_VERSION}", f"qubits {circuit.n_qubits}"]
    cols = circuit.gates
    for kind, control, target, angle in zip(
        cols.kind.tolist(), cols.control.tolist(), cols.target.tolist(),
        cols.angle.tolist(),
    ):
        if kind == CNOT_CODE:  # by far the most common line
            lines.append(f"CNOT {control} {target}")
        elif kind == F_CODE:
            lines.append(f"F {control} {target} {angle:.17g}")
        elif kind == ROT_CODE:
            line = f"ROT {target} {angle:.17g}"
            if plate_comments:
                line += f" # plate_angle_deg={math.degrees(angle / 2):.12g}"
            lines.append(line)
        else:
            lines.append(f"CZ {control} {target}")
    return "\n".join(lines) + "\n"


def _parse_index(token: str, bound: int, lineno: int, what: str = "qubit index") -> int:
    try:
        if not (token.isascii() and token.isdigit()):
            raise ValueError  # int() would also take a sign, `_` and other digits
        value = int(token)
    except ValueError:
        raise CircuitParseError(f"line {lineno}: bad {what} {token!r}") from None
    if not 1 <= value <= bound:
        raise CircuitParseError(f"line {lineno}: {what} {value} outside [1, {bound}]")
    return value


def _parse_angle(token: str, lineno: int) -> float:
    try:
        if not token.isascii() or "_" in token:
            raise ValueError  # float() would also take `_` and other digits
        value = float(token)
    except ValueError:
        raise CircuitParseError(f"line {lineno}: bad angle {token!r}") from None
    if not math.isfinite(value):
        raise CircuitParseError(f"line {lineno}: angle must be finite")
    return value


def parse_circuit(text: str) -> Circuit:
    """Parse wcircuit v1 text into a Circuit.  Strict; raises CircuitParseError."""
    # Rows are tokenized one at a time, so no token list outlives its line.
    rows = (
        (lineno, line.split())
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0].strip())
    )
    first = next(rows, None)
    if first is None:
        raise CircuitParseError("empty document")
    lineno, header = first
    if header != [_HEADER, _VERSION]:
        raise CircuitParseError(
            f"line {lineno}: expected '{_HEADER} {_VERSION}' header"
        )
    second = next(rows, None)
    if second is None or second[1][0] != "qubits":
        raise CircuitParseError("missing 'qubits <n>' line")
    lineno, qubits_row = second
    if len(qubits_row) != 2:
        raise CircuitParseError(f"line {lineno}: 'qubits' takes one field")
    n = _parse_index(qubits_row[1], MAX_QUBITS, lineno, "qubit count")
    if n < 2:
        raise CircuitParseError(f"line {lineno}: need at least 2 qubits")

    codes, controls, targets, angles = [], [], [], []
    for lineno, tokens in rows:
        kind = tokens[0]
        if kind not in _ARITY:
            raise CircuitParseError(f"line {lineno}: unknown keyword {kind!r}")
        if len(tokens) - 1 != _ARITY[kind]:
            raise CircuitParseError(
                f"line {lineno}: {kind} takes {_ARITY[kind]} fields, "
                f"got {len(tokens) - 1}"
            )
        if kind == "ROT":
            control = 0
            target = _parse_index(tokens[1], n, lineno)
            angle = _parse_angle(tokens[2], lineno)
        else:
            control = _parse_index(tokens[1], n, lineno)
            target = _parse_index(tokens[2], n, lineno)
            angle = _parse_angle(tokens[3], lineno) if kind == "F" else 0.0
            if control == target:
                raise CircuitParseError(
                    f"line {lineno}: control and target must differ"
                )
        codes.append(KIND_CODES[kind])
        controls.append(control)
        targets.append(target)
        angles.append(angle)

    try:
        return Circuit(n, GateColumns(codes, controls, targets, angles))
    except ValueError as exc:  # the gate kinds fit no lowering level
        raise CircuitParseError(str(exc)) from None


def load_circuit(path) -> Circuit:
    with open(path, encoding="utf-8") as fh:
        return parse_circuit(fh.read())


def save_circuit(circuit: Circuit, path) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(serialize_circuit(circuit))
