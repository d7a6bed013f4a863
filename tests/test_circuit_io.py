"""wcircuit v1 serialization: round-trips and strict parse errors."""
import math
import tracemalloc
from unittest.mock import patch

import pytest
from hypothesis import example, given, settings, strategies as st

from wstates import (
    CNOT,
    CZ,
    CapacityError,
    Circuit,
    CircuitParseError,
    F,
    Level,
    ROT,
    build_w_circuit,
    load_circuit,
    lower,
    parse_circuit,
    save_circuit,
    serialize_circuit,
)
from wstates import circuit_io
from wstates.gates import (
    ALLOWED_KINDS,
    CNOT_CODE,
    F_CODE,
    KIND_CODES,
    MAX_QUBITS,
    ROT_CODE,
    GateColumns,
)


def test_serialized_header_and_shape():
    text = serialize_circuit(build_w_circuit(3))
    lines = text.splitlines()
    assert lines[0] == "wcircuit 1"
    assert lines[1] == "qubits 3"
    assert len(lines) == 6
    assert lines[2].startswith("F 1 2 ")
    assert lines[3] == "CNOT 2 1"
    assert lines[4].startswith("F 2 3 ")
    assert lines[5] == "CNOT 3 2"
    assert text.endswith("\n")


@pytest.mark.parametrize("n", range(3, 11))
def test_synthesized_circuits_round_trip(n):
    circuit = build_w_circuit(n)
    assert parse_circuit(serialize_circuit(circuit)) == circuit


@pytest.mark.parametrize("target", [Level.CZ_LEVEL, Level.ELEMENTARY])
def test_lowered_circuits_round_trip(target):
    circuit = lower(build_w_circuit(5), target)
    assert parse_circuit(serialize_circuit(circuit)) == circuit


def test_elementary_rot_lines_carry_plate_comment():
    circuit = lower(build_w_circuit(3), Level.ELEMENTARY)
    rot_lines = [
        ln for ln in serialize_circuit(circuit).splitlines() if ln.startswith("ROT")
    ]
    assert rot_lines and all("# plate_angle_deg=" in ln for ln in rot_lines)
    # Hadamard plates sit at pi/8 = 22.5 deg.
    assert any(ln.endswith("=22.5") for ln in rot_lines)


def test_comments_and_blank_lines_ignored():
    text = """
# preparation network
wcircuit 1

qubits 2   # two rails
F 1 2 0.5  # coupler
CNOT 2 1
"""
    circuit = parse_circuit(text)
    assert circuit == Circuit(2, (F(1, 2, 0.5), CNOT(2, 1)))


def test_file_round_trip(tmp_path):
    path = tmp_path / "c.wc"
    circuit = build_w_circuit(4)
    save_circuit(circuit, path)
    assert load_circuit(path) == circuit
    assert path.read_bytes().decode() == serialize_circuit(circuit)


def test_level_inference():
    assert parse_circuit("wcircuit 1\nqubits 2\nF 1 2 0.5\n").level == Level.COMPOSITE
    assert parse_circuit("wcircuit 1\nqubits 2\nCZ 1 2\nROT 1 0.5\n").level == Level.CZ_LEVEL
    assert parse_circuit("wcircuit 1\nqubits 2\nROT 1 0.5\nCNOT 1 2\n").level == Level.ELEMENTARY
    assert parse_circuit("wcircuit 1\nqubits 2\n").level == Level.ELEMENTARY


@pytest.mark.parametrize(
    "text",
    [
        "",
        "qubits 2\n",
        "wcircuit 2\nqubits 2\n",
        "wcircuit 1 extra\nqubits 2\n",
        "wcircuit 1\n",
        "wcircuit 1\nqubits\n",
        "wcircuit 1\nqubits two\n",
        "wcircuit 1\nqubits 1\n",
        "wcircuit 1\nqubits 2 2\n",
        "wcircuit 1\nqubits 2\nHADAMARD 1\n",
        "wcircuit 1\nqubits 2\nF 1 2\n",            # missing angle
        "wcircuit 1\nqubits 2\nCNOT 1 2 0.5\n",     # extra field
        "wcircuit 1\nqubits 2\nCNOT 1\n",
        "wcircuit 1\nqubits 2\nCNOT 0 1\n",
        "wcircuit 1\nqubits 2\nCNOT 1 3\n",
        "wcircuit 1\nqubits 2\nCNOT 1 1\n",
        "wcircuit 1\nqubits 2\nROT 1 abc\n",
        "wcircuit 1\nqubits 2\nROT 1 nan\n",
        "wcircuit 1\nqubits 2\nROT 1 inf\n",
        "wcircuit 1\nqubits 2\nF 1 2 0.5\nROT 1 0.5\n",  # kinds fit no level
        "wcircuit 1\nqubits 2\nF 1.5 2 0.5\n",
    ],
)
def test_malformed_documents_rejected(text):
    with pytest.raises(CircuitParseError):
        parse_circuit(text)


def test_parse_error_reports_line_number():
    with pytest.raises(CircuitParseError, match="line 3"):
        parse_circuit("wcircuit 1\nqubits 2\nCNOT 0 1\n")


def test_qubit_count_beyond_int32_rejected_with_line_number():
    big = 2**31
    assert parse_circuit(f"wcircuit 1\nqubits {big - 1}\nCNOT {big - 1} 1\n")
    with pytest.raises(CircuitParseError, match="line 2"):
        parse_circuit(f"wcircuit 1\nqubits {big}\nCNOT {big} 1\n")


def test_every_circuit_that_builds_reads_back():
    # The largest qubit count a Circuit takes is the largest a file may name.
    with pytest.raises(ValueError, match=r"^circuits need 2 to 2147483647 qubits, got 2147483648$"):
        Circuit(2**31, ())
    circuit = Circuit(2**31 - 1, (CNOT(1, 2),))
    text = serialize_circuit(circuit)
    assert text == "wcircuit 1\nqubits 2147483647\nCNOT 1 2\n"
    back = parse_circuit(text)
    assert back.n_qubits == circuit.n_qubits and back.gates == circuit.gates
    assert serialize_circuit(back) == text


# Qubit counts and wires on each side of a change in digit count, and angles
# whose text is extreme: signed zeros, the least subnormal, huge, tiny, pi.
_DIGIT_EDGES = (2, 9, 10, 99, 100, 999, 1000, 3000)
_ODD_ANGLES = (0.0, -0.0, 5e-324, 1e300, -1e300, 1e-5, 1e16, math.pi, -math.pi)


def _gates_of(kinds, n, max_size=8):
    edges = [1, *(w for w in _DIGIT_EDGES if w <= n)]
    wires = st.one_of(st.integers(1, n), st.sampled_from(edges))
    pairs = st.tuples(wires, wires).filter(lambda p: p[0] != p[1])
    angles = st.one_of(
        st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(_ODD_ANGLES)
    )
    make = {
        "F": st.builds(lambda p, a: F(*p, a), pairs, angles),
        "CNOT": pairs.map(lambda p: CNOT(*p)),
        "CZ": pairs.map(lambda p: CZ(*p)),
        "ROT": st.builds(ROT, wires, angles),
    }
    return st.lists(st.one_of(*(make[k] for k in sorted(kinds))), max_size=max_size)


# Any mix of kinds that fits a level: a draw of the kinds one level allows.
_circuits = st.tuples(st.integers(2, 5), st.sampled_from(Level)).flatmap(
    lambda drawn: st.tuples(st.just(drawn[0]), _gates_of(ALLOWED_KINDS[drawn[1]], drawn[0]))
)


@given(_circuits)
def test_round_trip_is_exact_for_arbitrary_circuits(drawn):
    n, gates = drawn
    circuit = Circuit(n, tuple(gates))
    text = serialize_circuit(circuit)
    parsed = parse_circuit(text)
    assert parsed == circuit and parsed.level == circuit.level
    assert serialize_circuit(parsed) == text  # a fixed point on the bytes


def test_cnot_only_circuit_round_trips_at_its_level():
    # CNOTs fit every level, so the circuit is ELEMENTARY, in memory and in a file.
    circuit = Circuit(2, (CNOT(1, 2),))
    assert circuit.level == Level.ELEMENTARY
    assert parse_circuit(serialize_circuit(circuit)) == circuit


def test_rot_only_file_is_written_the_same_twice():
    # A ROT-only circuit is ELEMENTARY, so its plates are annotated on the
    # first write as on every later one.
    text = serialize_circuit(Circuit(2, (ROT(1, 0.5), ROT(2, math.pi / 4))))
    assert text.count("# plate_angle_deg=") == 2
    assert serialize_circuit(parse_circuit(text)) == text


def test_kinds_that_fit_no_level_name_their_kinds():
    with pytest.raises(CircuitParseError, match=r"^gate kinds \['CZ', 'F'\] fit no lowering level$"):
        parse_circuit("wcircuit 1\nqubits 2\nF 1 2 0.5\nCZ 1 2\n")


@pytest.mark.parametrize(
    "line, message",
    [
        ("CNOT 1_0 2", "line 3: bad qubit index '1_0'"),
        ("CNOT +1 2", "line 3: bad qubit index '+1'"),
        ("CNOT 1 \u0662", "line 3: bad qubit index '\u0662'"),  # Arabic-Indic 2
        ("ROT \uff11 0.5", "line 3: bad qubit index '\uff11'"),  # fullwidth 1
        ("F 1 2 1_0.5", "line 3: bad angle '1_0.5'"),
        ("ROT 1 \u0661.5", "line 3: bad angle '\u0661.5'"),  # Arabic-Indic 1
    ],
)
def test_tokens_int_and_float_would_take_are_rejected(line, message):
    with pytest.raises(CircuitParseError) as info:
        parse_circuit(f"wcircuit 1\nqubits 12\n{line}\n")
    assert str(info.value) == message


@pytest.mark.parametrize("count", ["1_0", "+3", "\u0663"])
def test_qubit_count_is_ascii_digits(count):
    with pytest.raises(CircuitParseError) as info:
        parse_circuit(f"wcircuit 1\nqubits {count}\n")
    assert str(info.value) == f"line 2: bad qubit count {count!r}"


def test_signs_and_exponents_stay_legal_in_angles():
    circuit = parse_circuit("wcircuit 1\nqubits 002\nROT 01 1e+20\nROT 2 -.5E-3\nROT 1 +2.\n")
    assert circuit.n_qubits == 2
    assert circuit.gates == (ROT(1, 1e20), ROT(2, -0.0005), ROT(1, 2.0))
    assert "ROT 1 1e+20 " in serialize_circuit(circuit)


def test_lf_crlf_space_and_tab_are_taken():
    text = "wcircuit 1\r\nqubits 3\nCNOT\t1 \t 2\r\n\tCNOT 2  3\t# x\r\n"
    assert parse_circuit(text) == Circuit(3, (CNOT(1, 2), CNOT(2, 3)))


def test_files_load_with_any_newline(tmp_path):
    text = serialize_circuit(lower(build_w_circuit(4), Level.ELEMENTARY))
    loaded = []
    for name, newline in (("lf", "\n"), ("crlf", "\r\n"), ("cr", "\r")):
        path = tmp_path / f"{name}.wc"
        path.write_bytes(text.replace("\n", newline).encode())
        loaded.append(load_circuit(path))
    assert loaded[0] == loaded[1] == loaded[2] == parse_circuit(text)


def test_load_circuit_reads_up_to_the_file_cap(monkeypatch, tmp_path):
    text = serialize_circuit(build_w_circuit(4))
    path = tmp_path / "c.wc"
    path.write_bytes(text.replace("\n", "\r\n").encode())  # a CR LF is one character
    monkeypatch.setattr(circuit_io, "FILE_CAP", len(text))
    assert load_circuit(path) == parse_circuit(text)
    path.write_text(text + "#" * (1 << 20))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError) as info:
            load_circuit(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert str(info.value) == f"the file {path} is longer than the cap of {len(text)} characters"
    assert peak < 1 << 16  # the read stopped one character past the cap


def test_file_cap_admits_the_largest_file_the_toolkit_writes():
    # synth writes at most n = 2047 (the row cap), and lowering to
    # elementary makes its largest file.
    text = serialize_circuit(lower(build_w_circuit(2047), Level.ELEMENTARY))
    assert len(text) == 29_631_762 <= circuit_io.FILE_CAP


# The whitespace the grammar does not take, a lone CR included: each is a
# token character.
_DROPPED = [c for c in map(chr, range(0x110000)) if c.isspace() and c not in " \t\n"]


def _refusals():
    """Documents that use a dropped character, as a separator, as a line break
    and next to an angle, with the message each gets."""
    for c in _DROPPED:
        yield f"wcircuit 1\nqubits 2\nCNOT{c}1 2\n", f"line 3: unknown keyword {'CNOT' + c + '1'!r}"
        yield f"wcircuit 1\nqubits 2\nCNOT 1 2{c}CNOT 2 1\n", "line 3: CNOT takes 2 fields, got 4"
        yield f"wcircuit 1\nqubits 2\nROT 1 0.5{c}# plate\n", f"line 3: bad angle {'0.5' + c!r}"
    yield "wcircuit 1\r\nqubits 3\rCNOT 1 2\x0bCNOT 2\xa03\n", "line 2: 'qubits' takes one field"
    yield "wcircuit 1\r\u2028qubits 2\r\u2029CNOT 1 1\n", "line 1: expected 'wcircuit 1' header"


@pytest.mark.parametrize("text, message", _refusals())
def test_dropped_characters_are_refused_naming_their_line(text, message):
    with pytest.raises(CircuitParseError) as info:
        parse_circuit(text)
    assert str(info.value) == message


@pytest.mark.parametrize("level", list(Level))
def test_large_circuits_round_trip(level):
    circuit = lower(build_w_circuit(1000), level)
    assert parse_circuit(serialize_circuit(circuit)) == circuit


def _peak_bytes(call, *args):
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_parse_peak_memory_is_bounded_by_the_text():
    text = serialize_circuit(lower(build_w_circuit(300), Level.ELEMENTARY))
    assert _peak_bytes(parse_circuit, text) <= 10 * len(text)


def test_serialize_holds_one_block_of_line_strings():
    # All 46,344 line strings at once would take about 10 times the text.
    circuit = lower(build_w_circuit(300), Level.ELEMENTARY)
    assert _peak_bytes(serialize_circuit, circuit) <= 3 * len(serialize_circuit(circuit))


# --- the laid-out writer against the f-string one ----------------------------
#
# _reference_serialize is serialize_circuit as it was before it laid out each
# block of lines as bytes: one f-string per gate.  It is kept as the
# specification of the bytes.

def _reference_serialize(circuit):
    plate_comments = circuit.level == Level.ELEMENTARY
    blocks = [f"wcircuit 1\nqubits {circuit.n_qubits}\n"]
    cols = circuit.gates
    for block in range(0, len(cols), circuit_io._WRITE_BLOCK):
        rows = slice(block, block + circuit_io._WRITE_BLOCK)
        lines = []
        for kind, control, target, angle in zip(
            cols.kind[rows].tolist(), cols.control[rows].tolist(),
            cols.target[rows].tolist(), cols.angle[rows].tolist(),
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
        blocks.append("\n".join(lines) + "\n")
    return "".join(blocks)


# Any level's kinds, at any width of wire field, written a block of 1, 7 or
# _WRITE_BLOCK lines at a time.
_laid_out = st.tuples(
    st.one_of(st.sampled_from(_DIGIT_EDGES), st.integers(2, 3000)), st.sampled_from(Level)
).flatmap(lambda drawn: st.tuples(
    st.just(drawn[0]),
    _gates_of(ALLOWED_KINDS[drawn[1]], drawn[0], max_size=24),
    st.sampled_from((1, 7, circuit_io._WRITE_BLOCK)),
))


@settings(max_examples=300, deadline=None)
@given(_laid_out)
# No gates; blocks of 7 where the second holds no F; each odd angle twice in
# one block, at each level.
@example((2, [], 7))
@example((10, [F(9, 10, 0.5)] + [CNOT(10, 9)] * 7 + [F(1, 10, 0.5)], 7))
@example((3000, [F(3000, 999, a) for a in _ODD_ANGLES * 2] + [CNOT(1, 3000)], 4096))
@example((1000, [ROT(w, a) for w, a in zip((1, 9, 10, 99, 100, 999, 1000) * 3,
                                            _ODD_ANGLES * 2)] + [CZ(100, 99)], 4096))
@example((100, [ROT(100, a) for a in _ODD_ANGLES * 2] + [CNOT(9, 10)], 4096))
def test_writer_matches_the_f_string_writer(drawn):
    n, gates, block = drawn
    circuit = Circuit(n, tuple(gates))
    with patch.object(circuit_io, "_WRITE_BLOCK", block):
        text = serialize_circuit(circuit)
        assert text == _reference_serialize(circuit)
    assert parse_circuit(text) == circuit


# --- the bulk parser against a per-line one ----------------------------------
#
# _reference_parse is the per-line parser the bulk one replaced, kept as the
# specification of the language and of every error message.

_REFERENCE_ARITY = {"F": 3, "CNOT": 2, "CZ": 2, "ROT": 2}


def _reference_index(token, bound, lineno, what="qubit index"):
    try:
        if not (token.isascii() and token.isdigit()):
            raise ValueError
        value = int(token)
    except ValueError:
        raise CircuitParseError(f"line {lineno}: bad {what} {token!r}") from None
    if not 1 <= value <= bound:
        raise CircuitParseError(f"line {lineno}: {what} {value} outside [1, {bound}]")
    return value


def _reference_angle(token, lineno):
    try:
        if not token.isascii() or "_" in token:
            raise ValueError
        value = float(token)
    except ValueError:
        raise CircuitParseError(f"line {lineno}: bad angle {token!r}") from None
    if not math.isfinite(value):
        raise CircuitParseError(f"line {lineno}: angle must be finite")
    return value


def _reference_parse(text):
    rows = (
        (lineno, line.split())
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (line := raw.split("#", 1)[0].strip())
    )
    first = next(rows, None)
    if first is None:
        raise CircuitParseError("empty document")
    lineno, header = first
    if header != ["wcircuit", "1"]:
        raise CircuitParseError(f"line {lineno}: expected 'wcircuit 1' header")
    second = next(rows, None)
    if second is None or second[1][0] != "qubits":
        raise CircuitParseError("missing 'qubits <n>' line")
    lineno, qubits_row = second
    if len(qubits_row) != 2:
        raise CircuitParseError(f"line {lineno}: 'qubits' takes one field")
    n = _reference_index(qubits_row[1], MAX_QUBITS, lineno, "qubit count")
    if n < 2:
        raise CircuitParseError(f"line {lineno}: need at least 2 qubits")
    codes, controls, targets, angles = [], [], [], []
    for lineno, tokens in rows:
        kind = tokens[0]
        if kind not in _REFERENCE_ARITY:
            raise CircuitParseError(f"line {lineno}: unknown keyword {kind!r}")
        arity = _REFERENCE_ARITY[kind]
        if len(tokens) - 1 != arity:
            raise CircuitParseError(
                f"line {lineno}: {kind} takes {arity} fields, got {len(tokens) - 1}"
            )
        if kind == "ROT":
            control = 0
            target = _reference_index(tokens[1], n, lineno)
            angle = _reference_angle(tokens[2], lineno)
        else:
            control = _reference_index(tokens[1], n, lineno)
            target = _reference_index(tokens[2], n, lineno)
            angle = _reference_angle(tokens[3], lineno) if kind == "F" else 0.0
            if control == target:
                raise CircuitParseError(f"line {lineno}: control and target must differ")
        codes.append(KIND_CODES[kind])
        controls.append(control)
        targets.append(target)
        angles.append(angle)
    try:
        return Circuit(n, GateColumns(codes, controls, targets, angles))
    except ValueError as exc:
        raise CircuitParseError(str(exc)) from None


def _outcome(parse, text):
    """The circuit parse makes of text, to the bit, or its error message."""
    try:
        circuit = parse(text)
    except CircuitParseError as exc:
        return str(exc)
    columns = [(c.dtype.str, c.tobytes()) for c in circuit.gates._columns()]
    return circuit.n_qubits, circuit.level, columns


# The line breaks and separators of the grammar.
_BREAKS = ("\n", "\r\n")
_SPACES = (" ", "\t")
_INDEX = st.sampled_from(["1", "2", "3", "01", "003"])
_ANGLE = st.sampled_from(["0.5", "-1e-3", "+2.", "3", "1e+20", "-0.0", "nan", "1e999"])
_TOKEN = st.sampled_from([
    "wcircuit", "qubits", "F", "CNOT", "CZ", "ROT",  # keywords
    "CNOTX", "cnot", "C", "CN", "RO", "FF", "ROTx", "F\x00",  # near-keywords
    "0", "1", "2", "4", "02", "0003", "1" * 19, "0" * 20 + "2", "9" * 25,
    "+" + "0" * 19 + "1", "1_" + "0" * 18,  # int() takes these, the grammar does not
    "+1", "1_0", "\u0662", "\uff11", "\xb2", "2.5", "-1", "1e3", "\xe9", "?",
    "0.5", "-.25E-3", "+2.", "inf", "-Infinity", "1_0.5", "\u0661.5",
    "1#2", "#", "#x", "a#",
])
_GATE = st.one_of(
    st.tuples(st.just("F"), _INDEX, _INDEX, _ANGLE),
    st.tuples(st.sampled_from(["CNOT", "CZ"]), _INDEX, _INDEX),
    st.tuples(st.just("ROT"), _INDEX, _ANGLE),
).map(list)
# A gate row with one token swapped for any other.
_BENT_GATE = st.tuples(_GATE, st.integers(0, 3), _TOKEN).map(
    lambda drawn: [drawn[2] if i == drawn[1] else t for i, t in enumerate(drawn[0])]
)
_HEADER_ROW = st.sampled_from(
    [["wcircuit", "1"]] * 12 + [["wcircuit", "2"], ["wcircuit", "1", "x"], ["wcircuit"],
                               ["qubits", "3"], []]
)
_QUBITS_ROW = st.sampled_from(
    [["qubits", "3"]] * 12 + [["qubits", "003"], ["qubits", "1"], ["qubits", "0"],
                             ["qubits", "x"], ["qubits"], ["qubits", "3", "3"],
                             ["qubits", "9" * 20], ["qubits", "+3"], ["CNOT", "1", "2"], []]
)
_GAP = st.lists(st.sampled_from(_SPACES), min_size=1, max_size=2).map("".join)
_COMMENT = st.sampled_from(["", "", "#", "# note", "#CNOT 1 2", "# a # b", "#\xa0x"])


@st.composite
def _line(draw, tokens):
    gaps = draw(st.lists(_GAP, min_size=len(tokens), max_size=len(tokens)))
    body = "".join(gap + token for gap, token in zip(gaps, tokens))
    lead = draw(st.booleans())
    return (body if lead else body.lstrip("".join(_SPACES))) + draw(_COMMENT)


@st.composite
def _line_soup(draw):
    """A document of valid lines, or of valid lines mixed with every kind of
    bad one, joined by any line break and separator."""
    clean = draw(st.booleans())
    rows = [["wcircuit", "1"], ["qubits", "3"]] if clean else [
        draw(_HEADER_ROW), draw(_QUBITS_ROW)]
    gates = _GATE if clean else st.one_of(_GATE, _BENT_GATE, st.lists(_TOKEN, max_size=5))
    rows += draw(st.lists(gates, max_size=6))
    lines = [draw(_line(row)) for row in rows]
    breaks = draw(st.lists(st.sampled_from(_BREAKS), min_size=len(lines),
                           max_size=len(lines)))
    text = "".join(line + brk for line, brk in zip(lines, breaks))
    return text if draw(st.booleans()) else text.rstrip("".join(_BREAKS))


# The documents whose outcome the tests above pin, and a corner case of the
# byte-level pass: int()'s digit limit.
_PINNED = [
    "", "qubits 2\n", "wcircuit 2\nqubits 2\n", "wcircuit 1 extra\nqubits 2\n",
    "wcircuit 1\n", "wcircuit 1\nqubits\n", "wcircuit 1\nqubits two\n",
    "wcircuit 1\nqubits 1\n", "wcircuit 1\nqubits 2 2\n",
    "wcircuit 1\nqubits 2\nHADAMARD 1\n", "wcircuit 1\nqubits 2\nF 1 2\n",
    "wcircuit 1\nqubits 2\nCNOT 1 2 0.5\n", "wcircuit 1\nqubits 2\nCNOT 1\n",
    "wcircuit 1\nqubits 2\nCNOT 0 1\n", "wcircuit 1\nqubits 2\nCNOT 1 3\n",
    "wcircuit 1\nqubits 2\nCNOT 1 1\n", "wcircuit 1\nqubits 2\nROT 1 abc\n",
    "wcircuit 1\nqubits 2\nROT 1 nan\n", "wcircuit 1\nqubits 2\nROT 1 inf\n",
    "wcircuit 1\nqubits 2\nF 1 2 0.5\nROT 1 0.5\n", "wcircuit 1\nqubits 2\nF 1.5 2 0.5\n",
    "wcircuit 1\nqubits 2\nF 1 2 0.5\nCZ 1 2\n",
    f"wcircuit 1\nqubits {2**31 - 1}\nCNOT {2**31 - 1} 1\n",
    f"wcircuit 1\nqubits {2**31}\nCNOT {2**31} 1\n",
    *(f"wcircuit 1\nqubits 12\n{line}\n" for line in (
        "CNOT 1_0 2", "CNOT +1 2", "CNOT 1 \u0662", "ROT \uff11 0.5", "F 1 2 1_0.5",
        "ROT 1 \u0661.5", "CNOT +00000000000000000001 2", "CNOT 1_000000000000000000 2")),
    *(f"wcircuit 1\nqubits {count}\n" for count in ("1_0", "+3", "\u0663")),
    "wcircuit 1\nqubits 002\nROT 01 1e+20\nROT 2 -.5E-3\nROT 1 +2.\n",
    "\n# preparation network\nwcircuit 1\n\nqubits 2   # two rails\n"
    "F 1 2 0.5  # coupler\nCNOT 2 1\n",
    "wcircuit 1\r\nqubits 3\nCNOT\t1 \t 2\r\n\tCNOT 2  3\t# x\r\n",
    "wcircuit 1\nqubits 2\nCNOT " + "1" * 4301 + " 2\n",
    "wcircuit 1\nqubits 2\nCNOT " + "0" * 4299 + "1 2\n",
]


def _with_pinned_examples(test):
    for text in _PINNED:
        test = example(text)(test)
    return test


@_with_pinned_examples
@settings(max_examples=300, deadline=None)
@given(_line_soup())
def test_bulk_parser_matches_the_per_line_parser(text):
    assert _outcome(parse_circuit, text) == _outcome(_reference_parse, text)
