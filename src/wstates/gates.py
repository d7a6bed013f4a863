"""Gates, circuits, exact gate matrices, and a brute-force unitary oracle.

Conventions:
  Qubit indices are 1-based spatial modes.  Mode 1 is the most significant
  bit of a basis index; H polarization encodes bit 0 and V encodes bit 1,
  so the basis index of an n-mode ket is sum(bit_i * 2**(n - i)).
  The single-qubit rotation is the real reflection

      R(alpha) = [[cos(alpha),  sin(alpha)],
                  [sin(alpha), -cos(alpha)]]

  with R(0) = Z, R(pi/4) = Hadamard, R(pi/2) = X, and R(alpha)**2 = I for
  every alpha.  F(control, target, alpha) applies R(alpha) on the target
  inside the control=1 sector and is the identity elsewhere.  Two-qubit
  matrices are written in basis order |00>, |01>, |10>, |11> with the
  control as the left bit.  Every matrix in this gate set is real.

  Gate lists are in application order (first gate applied first): the
  left-to-right order of a bench diagram, i.e. the reverse of
  operator-product notation.

Storage:
  A Circuit keeps its gates as GateColumns, four read-only numpy columns
  with one row per gate: kind code (the index of the kind in GATE_KINDS),
  control (0 for ROT), target, and angle (0.0 for CNOT and CZ).  Builders
  and rewrites fill the columns with array operations, so a circuit of
  millions of gates holds no per-gate Python object.  Gate values are made
  only when an item of the sequence is read; `circuit.gates[i]` is a Gate
  and a slice is a tuple of Gates.
"""
from __future__ import annotations

import enum
import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError

GATE_KINDS = ("F", "CNOT", "CZ", "ROT")
F_CODE, CNOT_CODE, CZ_CODE, ROT_CODE = range(len(GATE_KINDS))
KIND_CODES = {kind: code for code, kind in enumerate(GATE_KINDS)}
ANGLED_KINDS = frozenset({"F", "ROT"})

UNITARY_QUBIT_CAP = 10


class Level(enum.IntEnum):
    """Lowering levels, ordered ELEMENTARY < CZ_LEVEL < COMPOSITE."""

    ELEMENTARY = 0
    CZ_LEVEL = 1
    COMPOSITE = 2


ALLOWED_KINDS = {
    Level.COMPOSITE: frozenset({"F", "CNOT"}),
    Level.CZ_LEVEL: frozenset({"ROT", "CZ", "CNOT"}),
    Level.ELEMENTARY: frozenset({"ROT", "CNOT"}),
}


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate: kind, 1-based wire indices, and a mixing angle for F/ROT."""

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if self.target < 1:
            raise ValueError("qubit indices are 1-based")
        if self.kind == "ROT":
            if self.control is not None:
                raise ValueError("ROT takes no control qubit")
        else:
            if self.control is None:
                raise ValueError(f"{self.kind} requires a control qubit")
            if self.control < 1:
                raise ValueError("qubit indices are 1-based")
            if self.control == self.target:
                raise ValueError("control and target must differ")
        if self.kind in ANGLED_KINDS:
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} requires a finite angle")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} carries no angle")

    @property
    def qubits(self) -> tuple[int, ...]:
        """Wires touched, control first."""
        if self.control is None:
            return (self.target,)
        return (self.control, self.target)


def F(control: int, target: int, alpha: float) -> Gate:
    return Gate("F", target, control, float(alpha))


def CNOT(control: int, target: int) -> Gate:
    return Gate("CNOT", target, control)


def CZ(control: int, target: int) -> Gate:
    return Gate("CZ", target, control)


def ROT(qubit: int, alpha: float) -> Gate:
    return Gate("ROT", qubit, None, float(alpha))


class GateColumns(Sequence):
    """Read-only gate sequence stored as four numpy columns, one row per gate.

    kind holds uint8 codes (F_CODE, CNOT_CODE, CZ_CODE, ROT_CODE); control
    and target hold int32 1-based wires, with control 0 on ROT rows; angle
    holds float64 mixing angles, 0.0 on CNOT and CZ rows.  The constructor
    copies its arguments into read-only columns that nothing the caller
    holds can change, refuses values the cast would change, and checks the
    rest against the same invariants as Gate.  Indexing creates a Gate,
    slicing a tuple of Gates, and a GateColumns compares equal to the tuple
    of the same Gates.
    """

    __slots__ = ("kind", "control", "target", "angle")

    def __init__(self, kind, control, target, angle):
        self._freeze(np.array, kind, control, target, angle)

    @classmethod
    def _adopt(cls, kind, control, target, angle) -> GateColumns:
        """GateColumns over arrays made inside this package and held
        nowhere else (or already frozen columns): taken over without a copy
        and marked read-only.  Spares the builders a second copy of a
        circuit of millions of gates."""
        self = cls.__new__(cls)
        self._freeze(np.asarray, kind, control, target, angle)
        return self

    def _freeze(self, convert, kind, control, target, angle) -> None:
        self.kind = _frozen_column(convert, kind, np.uint8, "gate kind codes")
        self.control = _frozen_column(convert, control, np.int32, "control wires")
        self.target = _frozen_column(convert, target, np.int32, "target wires")
        self.angle = _frozen_column(convert, angle, np.float64, "angles")
        size = self.kind.shape[0]
        for col in self._columns():
            if col.shape != (size,):
                raise ValueError("gate columns must be 1-D and of equal length")
        self._check()

    def _columns(self) -> tuple[np.ndarray, ...]:
        return (self.kind, self.control, self.target, self.angle)

    def _check(self) -> None:
        # Whole-column tests only: masks, no gathered copies of the columns.
        kind, control, target, angle = self._columns()
        bad = kind >= len(GATE_KINDS)
        if bad.any():
            raise ValueError(f"unknown gate kind code {int(kind[bad.argmax()])}")
        rot = kind == ROT_CODE
        if ((control != 0) & rot).any():
            raise ValueError("ROT takes no control qubit")
        if (target < 1).any() or ((control < 1) & ~rot).any():
            raise ValueError("qubit indices are 1-based")
        if (control == target).any():
            raise ValueError("control and target must differ")
        if ((angle != 0.0) & ~(rot | (kind == F_CODE))).any():
            raise ValueError("CNOT and CZ carry no angle")
        if not np.isfinite(angle).all():
            raise ValueError("F and ROT require finite angles")

    def __len__(self) -> int:
        return self.kind.shape[0]

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._rows(index))
        i = range(len(self))[index]  # normalizes negatives, raises IndexError
        return next(self._rows(slice(i, i + 1)))

    def _rows(self, index: slice = slice(None)):
        return map(_gate_of, *(c[index].tolist() for c in self._columns()))

    def __iter__(self):
        return self._rows()

    def __eq__(self, other):
        if isinstance(other, GateColumns):
            return all(map(np.array_equal, self._columns(), other._columns()))
        if isinstance(other, tuple):
            return len(self) == len(other) and tuple(self) == other
        return NotImplemented

    def __hash__(self):
        kind, control, target, angle = self._columns()
        # + 0.0 maps -0.0 to 0.0, which compare equal.
        return hash((kind.tobytes(), control.tobytes(), target.tobytes(),
                     (angle + 0.0).tobytes()))

    def __repr__(self):
        return f"GateColumns(<{len(self)} gates>)"


def _gate_of(kind: int, control: int, target: int, angle: float) -> Gate:
    if kind == ROT_CODE:
        return Gate("ROT", target, None, angle)
    if kind == F_CODE:
        return Gate("F", target, control, angle)
    return Gate(GATE_KINDS[kind], target, control)


def _frozen_column(convert, values, dtype, what: str) -> np.ndarray:
    """values as a read-only dtype array, by convert; refuses what a cast changes."""
    column = convert(values)
    integral = np.issubdtype(dtype, np.integer)
    if column.size and column.dtype.kind not in ("biu" if integral else "biuf"):
        raise ValueError(f"{what} must be {'integers' if integral else 'real'}")
    cast = column.astype(dtype, copy=False)
    if integral and cast is not column and (cast != column).any():
        raise ValueError(f"{what} out of range for {np.dtype(dtype)}")
    cast.setflags(write=False)
    return cast


def columns_of(gates) -> GateColumns:
    """GateColumns holding the given Gate values, in order."""
    gates = tuple(gates)
    return GateColumns(
        [KIND_CODES[g.kind] for g in gates],
        [0 if g.control is None else g.control for g in gates],
        [g.target for g in gates],
        [0.0 if g.angle is None else g.angle for g in gates],
    )


@dataclass(frozen=True, slots=True, repr=False)
class Circuit:
    """Ordered gate list over n_qubits wires at a declared lowering level.

    gates may be given as any iterable of Gate values or as GateColumns;
    it is stored as GateColumns.
    """

    n_qubits: int
    gates: GateColumns
    level: Level

    def __post_init__(self):
        object.__setattr__(self, "level", Level(self.level))
        if self.n_qubits < 2:
            raise ValueError("circuits need at least 2 qubits")
        cols = self.gates
        if not isinstance(cols, GateColumns):
            cols = columns_of(cols)
            object.__setattr__(self, "gates", cols)
        allowed = np.array([k in ALLOWED_KINDS[self.level] for k in GATE_KINDS])
        bad = ~allowed[cols.kind]
        if bad.any():
            kind = GATE_KINDS[cols.kind[bad.argmax()]]
            raise ValueError(f"{kind} gate not allowed at level {self.level.name}")
        n = self.n_qubits
        bad = (cols.target > n) | (cols.control > n)
        if bad.any():
            raise ValueError(f"gate {cols[int(bad.argmax())]} exceeds {n} qubits")

    def __repr__(self):
        return (
            f"Circuit(n_qubits={self.n_qubits}, level={self.level.name}, "
            f"gates=<{len(self.gates)}>)"
        )

    def gate_counts(self) -> dict[str, int]:
        tally = np.bincount(self.gates.kind, minlength=len(GATE_KINDS)).tolist()
        return {k: v for k, v in zip(GATE_KINDS, tally) if v}


def rotation_matrix(alpha: float) -> np.ndarray:
    """R(alpha): symmetric, orthogonal, involutory 2x2 reflection."""
    if not math.isfinite(alpha):
        raise ValueError("rotation angle must be finite")
    c, s = math.cos(alpha), math.sin(alpha)
    return np.array([[c, s], [s, -c]])


def gate_matrix(g: Gate) -> np.ndarray:
    """Exact matrix of one gate: 2x2 for ROT, 4x4 otherwise."""
    if g.kind == "ROT":
        return rotation_matrix(g.angle)
    if g.kind == "CNOT":
        return np.array(
            [[1.0, 0, 0, 0], [0, 1.0, 0, 0], [0, 0, 0, 1.0], [0, 0, 1.0, 0]]
        )
    if g.kind == "CZ":
        return np.diag([1.0, 1.0, 1.0, -1.0])
    m = np.eye(4)
    m[2:, 2:] = rotation_matrix(g.angle)
    return m


def _embed(matrix: np.ndarray, qubits: tuple[int, ...], n: int) -> np.ndarray:
    """Embed a 2x2 or 4x4 gate matrix into the full 2**n space.

    full[row, col] = matrix[sub_out, sub_in] whenever row and col agree on
    all wires the gate does not touch.
    """
    dim = 1 << n
    k = len(qubits)
    shifts = [n - q for q in qubits]
    cols = np.arange(dim, dtype=np.int64)
    sub_in = np.zeros(dim, dtype=np.int64)
    base = cols.copy()
    for sh in shifts:
        sub_in = (sub_in << 1) | ((cols >> sh) & 1)
        base &= ~(1 << sh)
    full = np.zeros((dim, dim))
    for sub_out in range(1 << k):
        rows = base.copy()
        for j, sh in enumerate(shifts):
            if (sub_out >> (k - 1 - j)) & 1:
                rows |= 1 << sh
        full[rows, cols] = matrix[sub_out, sub_in]
    return full


def unitary_of(circuit: Circuit) -> np.ndarray:
    """Full 2**n x 2**n matrix of the circuit, first gate rightmost.

    Brute-force product of embedded gate matrices; kept independent of the
    simulator backends so the two can cross-check each other.
    """
    n = circuit.n_qubits
    if n > UNITARY_QUBIT_CAP:
        raise CapacityError(
            f"unitary oracle capped at {UNITARY_QUBIT_CAP} qubits (got {n})"
        )
    u = np.eye(1 << n)
    for g in circuit.gates:
        u = _embed(gate_matrix(g), g.qubits, n) @ u
    return u
