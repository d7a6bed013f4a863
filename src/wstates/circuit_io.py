"""Reader and writer for the line-oriented "wcircuit v1" text format.

Layout:

    wcircuit 1
    qubits <n>
    F <control> <target> <alpha>
    CNOT <control> <target>
    CZ <control> <target>
    ROT <qubit> <alpha>

Gate lines appear in application order with 1-based indices; angles are
decimal radians printed with 17 significant digits so floats round-trip
bit-exactly.  The writer emits UTF-8 with LF line endings and one space
between fields.  The reader takes ASCII text whose lines end at LF (the CR
of a CR LF is a separator), whose fields are separated by runs of spaces
and tabs, and where `#` starts a comment; every other character is a token
character.  load_circuit reads with universal newlines, so CR-only and
CR LF files load too, and refuses a file of more than FILE_CAP characters
(a CR LF is one) with CapacityError.  Blank lines are ignored.  The qubit
count and every index are one or more ASCII digits: no sign, no `_`, no
other script's digits.  An angle is a finite decimal float in ASCII with
no `_`, sign and exponent allowed (`-0.5`, `1e+20`).  Parsing is strict:
unknown keywords, bad tokens, out-of-range indices, missing or extra
fields, and gate kinds that fit no lowering level are hard errors.

The parser reads the whole text in one pass of array operations, with no
loop over lines.  It encodes the text as ASCII, one byte per character and
`?` for any other, and finds each token's start and end, each line's first
token and the start of its comment.  It reads every keyword from its bytes
and every index with a fixed-width digit gather; only angles go through
float(), one token at a time.  Each grammar rule is a mask over the gate
lines, and an error names the first line any mask marks and the first rule
that line breaks.

The writer has no loop over gates either.  It lays out each block of
_WRITE_BLOCK gates as one uint8 matrix, one row per line, NUL wherever the
line has no character: the keyword and its space, from a table by kind
code; control and target, right-aligned in fields of len(str(n)) digits and
each followed by a space, where a leading zero is NUL, and so are a ROT's
control and the space after it and the space after a target with no angle;
the angle text, formatted once for each distinct angle in the block; the
LF.  The text holds no NUL, so the block's bytes are the matrix's nonzero
bytes in order.  Each block is decoded before the next is laid out, and the
text is joined once.

The format carries no lowering level: a Circuit reads its level off its
gate kinds (see gates.Circuit).
"""
from __future__ import annotations

import math

import numpy as np

from .base import F_CODE, GATE_KINDS, MAX_QUBITS, ROT_CODE, _HEADER, _VERSION, Level, _emit
from .base import _WRITE_BLOCK  # gate lines serialize_circuit lays out at a time
from .errors import CapacityError, CircuitParseError
from .gates import Circuit, GateColumns

# Byte table for bytes.translate: 1 where a byte may be part of a token,
# that is, anything but a tab, an LF, a space or `#`.
_WORD = bytes(c not in b"\t\n #" for c in range(256))
# Each gate kind's keyword and its space, NUL-padded to one width, by kind code.
_KEYWORDS = np.array([k.encode() + b" " for k in GATE_KINDS]).view(np.uint8).reshape(
    len(GATE_KINDS), -1)
_UINT32_DIGITS = 9  # a uint32 holds every decimal of this many digits
_TOO_BIG = MAX_QUBITS + 1  # past every qubit count and index bound
# Most characters load_circuit reads: above the largest file the toolkit
# writes, the n = 2047 network lowered to elementary (29,631,762).  A file
# verb peaks at about 9x its file, so at about 300 MB at this cap.
FILE_CAP = 32 << 20


def serialize_circuit(circuit: Circuit) -> str:
    """Render a circuit as wcircuit v1 text (trailing newline included).

    ELEMENTARY circuits annotate each ROT line with the physical
    half-wave-plate angle alpha/2, the knob an experimenter actually sets.
    Each block of _WRITE_BLOCK gates is laid out as one byte matrix and
    decoded before the next, so one block's bytes at most are alive beside
    the text.
    """
    n = circuit.n_qubits
    d = len(str(n))
    # A circuit's level fixes its one angled kind: F at COMPOSITE, ROT below.
    plate_comments = circuit.level == Level.ELEMENTARY
    blocks = [f"{_HEADER} {_VERSION}\nqubits {n}\n"]
    cols = circuit.gates
    for block in range(0, len(cols), _WRITE_BLOCK):
        rows = slice(block, block + _WRITE_BLOCK)
        kind, control = cols.kind[rows], cols.control[rows]
        angled = np.flatnonzero((kind == F_CODE) | (kind == ROT_CODE))
        # Each distinct angle, by its bits so that -0.0 is not 0.0, is
        # formatted once.
        bits, which = np.unique(cols.angle[rows][angled].view(np.uint64),
                                return_inverse=True)
        suffix = np.array([
            f"{a:.17g} # plate_angle_deg={math.degrees(a / 2):.12g}"
            if plate_comments else f"{a:.17g}"
            for a in bits.view(np.float64).tolist()
        ] or [""], dtype=bytes)
        # One NUL-padded line per row: keyword, control and target fields,
        # angle, LF.
        head, tail = _KEYWORDS.shape[1], suffix.itemsize
        line = np.zeros((kind.size, head + 2 * (d + 1) + tail + 1), np.uint8)
        line[:, :head] = np.take(_KEYWORDS, kind, axis=0)
        fields = line[:, head : -tail - 1].reshape(-1, 2, d + 1)
        wire = np.stack((control, cols.target[rows]), axis=1).view(np.uint32)
        for digit in range(d - 1, -1, -1):  # a leading zero, and a 0, is NUL
            tens = wire // 10
            ones = wire - tens * 10
            ones += 48
            np.multiply(ones, wire != 0, out=fields[:, :, digit], casting="unsafe")
            wire = tens
        fields[:, 0, d] = (control != 0) * 32  # a ROT's control is 0
        fields[angled, 1, d] = 32
        line[angled, -tail - 1 : -1] = suffix.view(np.uint8).reshape(-1, tail)[which]
        line[:, -1] = 10
        blocks.append(line[line != 0].tobytes().decode("ascii"))
    return "".join(blocks)


def parse_circuit(text: str) -> Circuit:
    """Parse wcircuit v1 text into a Circuit.  Strict; raises CircuitParseError."""
    # One byte per character, so a byte's offset is the character's index in text.
    raw = text.encode("ascii", "replace")
    if b"\r" in raw:  # the CR of a CR LF reads as a separator
        raw = raw.replace(b"\r\n", b" \n")
    b = np.frombuffer(raw, np.uint8)
    lineno, first, count, start, end = _rows(raw, b)

    def words(row: int) -> list[str]:
        span = slice(first[row], first[row] + count[row])
        return [text[s:e] for s, e in zip(start[span].tolist(), end[span].tolist())]

    if not lineno.size:
        raise CircuitParseError("empty document")
    if words(0) != [_HEADER, _VERSION]:
        raise CircuitParseError(
            f"line {lineno[0]}: expected '{_HEADER} {_VERSION}' header"
        )
    if lineno.size < 2 or words(1)[0] != "qubits":
        raise CircuitParseError("missing 'qubits <n>' line")
    if count[1] != 2:
        raise CircuitParseError(f"line {lineno[1]}: 'qubits' takes one field")
    field = first[1:2] + 1
    value, bad = _digits(b, raw, start[field], end[field])
    if bad[0]:
        raise CircuitParseError(f"line {lineno[1]}: bad qubit count {words(1)[1]!r}")
    if not 1 <= value[0] <= MAX_QUBITS:
        raise CircuitParseError(
            f"line {lineno[1]}: qubit count {int(words(1)[1])} outside [1, {MAX_QUBITS}]"
        )
    n = int(value[0])
    if n < 2:
        raise CircuitParseError(f"line {lineno[1]}: need at least 2 qubits")

    # Gate rows: each one's keyword token and the number of fields after it.
    key, got = first[2:], count[2:] - 1
    kind = _kinds(b, start[key], end[key])
    rot, f = kind == ROT_CODE, kind == F_CODE
    fields = f + np.uint8(2)
    # The control field, and the target field: a ROT's one qubit is its target.
    wire = np.minimum(key + 1, start.size - 1)
    control, bad1 = _digits(b, raw, start[wire], end[wire])
    wire = np.minimum(key + 2 - rot, start.size - 1)
    target, bad2 = _digits(b, raw, start[wire], end[wire])
    # Angles: the last field of each F and ROT row with the right field count.
    angled = np.flatnonzero((rot | f) & (got == fields))
    field = key[angled] + fields[angled]
    parsed = [
        _angle(raw[s:e]) for s, e in zip(start[field].tolist(), end[field].tolist())
    ]
    angle = np.zeros(key.size)
    angle[angled] = np.array(parsed, dtype=np.float64)  # None reads as nan
    bad_angle = np.zeros(key.size, bool)
    bad_angle[angled] = [a is None for a in parsed]

    # The grammar, in the order a line is read: the first row any rule marks
    # is reported, with the first rule it breaks.
    rules = (
        (kind == len(GATE_KINDS), lambda r, tok: f"unknown keyword {tok[0]!r}"),
        (got != fields, lambda r, tok: f"{tok[0]} takes {fields[r]} fields, got {got[r]}"),
        (bad1, lambda r, tok: f"bad qubit index {tok[1]!r}"),
        ((control < 1) | (control > n),
         lambda r, tok: f"qubit index {int(tok[1])} outside [1, {n}]"),
        (bad2, lambda r, tok: f"bad qubit index {tok[2]!r}"),
        ((target < 1) | (target > n),
         lambda r, tok: f"qubit index {int(tok[2])} outside [1, {n}]"),
        (bad_angle, lambda r, tok: f"bad angle {tok[fields[r]]!r}"),
        (~np.isfinite(angle), lambda r, tok: "angle must be finite"),
        (~rot & (control == target), lambda r, tok: "control and target must differ"),
    )
    broken = [int(mask.argmax()) for mask, _ in rules if mask.any()]
    if broken:
        r = min(broken)
        message = next(message for mask, message in rules if mask[r])
        raise CircuitParseError(f"line {lineno[r + 2]}: {message(r, words(r + 2))}")

    control[rot] = 0
    try:  # every wire is at most n now, so its uint32 bits read as int32
        return Circuit(n, GateColumns._adopt(
            kind, control.view(np.int32), target.view(np.int32), angle
        ))
    except ValueError as exc:  # the gate kinds fit no lowering level
        raise CircuitParseError(str(exc)) from None


def _rows(raw: bytes, b):
    """The number, first token and token count of each line of raw that holds
    a token, and the start and end offset of every token."""
    pos = np.int32 if b.size < 2**31 else np.int64
    line_end = np.append(np.flatnonzero(b == 10), b.size).astype(pos)
    # Tokens: maximal runs of bytes that are neither a separator nor `#`.
    edge = np.diff(np.frombuffer(b"\0" + raw.translate(_WORD) + b"\0", np.int8))
    start = np.flatnonzero(edge == 1).astype(pos)
    end = np.flatnonzero(edge == -1).astype(pos)
    del edge
    # A line's tokens run from the end of the line before to its own end, or
    # to its first `#`, where its comment starts.
    cut = np.searchsorted(start, line_end)
    first = np.append(0, cut[:-1])
    hashes = np.flatnonzero(b == 35)
    line = np.searchsorted(line_end, hashes)
    lead = np.diff(line, prepend=-1) != 0
    cut[line[lead]] = np.searchsorted(start, hashes[lead])
    rows = np.flatnonzero(cut - first)
    count = (cut - first)[rows].astype(pos)
    return (rows + 1).astype(pos), first[rows].astype(pos), count, start, end


def _kinds(b, start, end):
    """The code of the gate kind each token b[start:end] names, or
    len(GATE_KINDS) if it names none."""
    size = end - start
    head = [np.take(b, start + j, mode="clip") for j in range(4)]
    kind = np.full(size.shape, len(GATE_KINDS), np.uint8)
    for code, keyword in enumerate(GATE_KINDS):
        hit = size == len(keyword)
        for byte, char in zip(head, keyword.encode()):
            hit &= byte == char
        kind[hit] = code
    return kind


def _digits(b, raw: bytes, start, end):
    """Each token raw[start:end] read as a decimal of ASCII digits, capped at
    _TOO_BIG, and the mask of the tokens that are not one."""
    size = end - start
    value = np.zeros(size.shape, np.uint32)
    bad = np.zeros(size.shape, bool)
    # The k-th byte from each token's end, for k from the longest token down.
    for k in range(min(int(size.max(initial=0)), _UINT32_DIGITS), 0, -1):
        digit = np.take(b, end - k, mode="clip") - np.uint8(48)
        digit[size < k] = 0
        bad |= digit > 9
        value *= 10
        value += digit
    for i in np.flatnonzero(size > _UINT32_DIGITS).tolist():
        token = raw[start[i]:end[i]]
        bad[i] = not token.isdigit()  # bytes.isdigit takes ASCII digits only
        try:
            value[i] = min(int(token), _TOO_BIG)
        except ValueError:  # more digits than int() converts
            bad[i] = True
    return value, bad


def _angle(token: bytes) -> float | None:
    """float(token), or None if token is no angle: float() would also take `_`
    and a VT, FF or CR around the number."""
    if b"_" not in token and token.strip() == token:
        try:
            return float(token)
        except ValueError:
            pass
    return None


def load_circuit(path) -> Circuit:
    """Parse the wcircuit file at path; CapacityError, before parsing, if
    it holds more than FILE_CAP characters."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read(FILE_CAP + 1)
    if len(text) > FILE_CAP:
        raise CapacityError(f"the file {path} is longer than the cap of {FILE_CAP} characters")
    return parse_circuit(text)


def save_circuit(circuit: Circuit, path) -> None:
    _emit((serialize_circuit(circuit),), path)
