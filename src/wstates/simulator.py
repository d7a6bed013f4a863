"""Dense and sparse statevector execution for real-valued circuits.

Dense states are float64 arrays of length 2**n (mode 1 = most significant
bit), good to DENSE_QUBIT_CAP qubits.  Sparse states map basis index ->
amplitude and hold only nonzero entries; the W-preparation family never
exceeds n simultaneous nonzeros, so sparse runs scale to thousands of
qubits.  Amplitudes are real by construction (every gate matrix is real),
so no complex storage exists anywhere.

Both engines read the circuit's gate columns (see gates.py), never Gate
objects.  The dense engine applies one gate per step.  During a sparse run
the engine keeps a private scratch: a (n_qubits x support) bit matrix plus
an amplitude vector.  A CNOT is then one row XOR, a CZ one masked sign
flip, and only the mixing gates (ROT, F) need pair matching.  Before
running, the sparse engine plans maximal runs of consecutive CNOTs that
share a target (the fan-in layers that make up almost all of the W
network) and applies each run as a single XOR-reduce of its control rows
into the target row, which gives the same bits as one CNOT at a time.
States are converted to and from plain index->amplitude mappings at API
boundaries, all keys in one unpackbits or packbits call; amplitudes below
PRUNE_THRESHOLD are dropped after each mixing gate (with this circuit
family that only ever removes numerically-zero residue).

There is one execution path.  resolve_backend is the only place that maps
"auto" to a backend and the only cap check: the caps are the constants
DENSE_QUBIT_CAP and SPARSE_QUBIT_CAP, and QuantumState.to_dense checks its
dense storage through it too.  run converts the input to that backend's
storage and, like apply_gate, hands it to _execute, which steps the
matching engine one op at a time (a gate on the dense engine, a gate or
fused CNOT run on the sparse one) and, with check_norm, checks the norm
after each op.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError
from .gates import (
    CNOT_CODE,
    CZ_CODE,
    F_CODE,
    Circuit,
    Gate,
    GateColumns,
    columns_of,
)

DENSE_QUBIT_CAP = 24
SPARSE_QUBIT_CAP = 10000
AUTO_DENSE_MAX = 20
PRUNE_THRESHOLD = 1e-15
_NORM_GUARD = 1e-9


def bits_of(index: int, n: int) -> str:
    """Render a basis index as an n-character 0/1 string, mode 1 leftmost."""
    return format(index, f"0{n}b")


def encode_bits(bits: str) -> int:
    """Basis index of an 'H'/'V' (or '0'/'1') string, mode 1 leftmost."""
    index = 0
    for ch in bits:
        if ch in "H0":
            index <<= 1
        elif ch in "V1":
            index = (index << 1) | 1
        else:
            raise ValueError(f"bad polarization character {ch!r}")
    return index


def pick_backend(n: int, auto_threshold: int = AUTO_DENSE_MAX) -> str:
    return "dense" if n <= auto_threshold else "sparse"


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class QuantumState:
    """Real amplitudes over the n-qubit computational basis.

    amplitudes is a dict {basis index: amplitude} for the sparse backend or
    a float64 array of length 2**n for the dense backend.  Instances are
    immutable snapshots: dense arrays are adopted and marked read-only,
    sparse mappings are copied with zero entries dropped.
    """

    n: int
    amplitudes: dict | np.ndarray
    backend: str

    def __post_init__(self):
        if self.backend == "dense":
            arr = np.ascontiguousarray(self.amplitudes, dtype=np.float64)
            if arr.shape != (1 << self.n,):
                raise ValueError("dense amplitude array has wrong length")
            arr.setflags(write=False)
            object.__setattr__(self, "amplitudes", arr)
        elif self.backend == "sparse":
            bound = 1 << self.n
            items = {}
            for k, v in self.amplitudes.items():
                k = int(k)
                if not 0 <= k < bound:
                    raise ValueError(f"basis index {k} does not fit {self.n} qubits")
                if v != 0.0:
                    items[k] = float(v)
            object.__setattr__(self, "amplitudes", items)
        else:
            raise ValueError(f"unknown backend {self.backend!r}")
        # Written so that a NaN norm fails the check too.
        if not abs(self.norm_squared() - 1.0) <= _NORM_GUARD:
            raise ValueError("state is not normalized")

    def __repr__(self):
        return (
            f"QuantumState(n={self.n}, backend={self.backend!r}, "
            f"support={self.support_size()})"
        )

    def amplitude(self, index: int) -> float:
        if self.backend == "dense":
            return float(self.amplitudes[index])
        return self.amplitudes.get(index, 0.0)

    def items(self):
        """Nonzero (basis index, amplitude) pairs."""
        if self.backend == "dense":
            for i in np.flatnonzero(self.amplitudes):
                yield int(i), float(self.amplitudes[i])
        else:
            yield from self.amplitudes.items()

    def support_size(self) -> int:
        if self.backend == "dense":
            return int(np.count_nonzero(self.amplitudes))
        return len(self.amplitudes)

    def norm_squared(self) -> float:
        if self.backend == "dense":
            return float(np.dot(self.amplitudes, self.amplitudes))
        return math.fsum(v * v for v in self.amplitudes.values())

    def to_dense(self) -> "QuantumState":
        if self.backend == "dense":
            return self
        resolve_backend(self.n, "dense")
        vec = np.zeros(1 << self.n)
        for k, v in self.amplitudes.items():
            vec[k] = v
        return QuantumState(self.n, vec, "dense")

    def to_sparse(self) -> "QuantumState":
        if self.backend == "sparse":
            return self
        return QuantumState(self.n, dict(self.items()), "sparse")


def basis_state(n: int, bits: str, backend: str = "auto") -> QuantumState:
    """Computational basis state |bits>, e.g. basis_state(3, "VHH")."""
    if len(bits) != n:
        raise ValueError(f"expected {n} characters, got {len(bits)}")
    state = QuantumState(n, {encode_bits(bits): 1.0}, "sparse")
    if backend == "auto":
        backend = pick_backend(n)
    if backend not in ("dense", "sparse"):
        raise ValueError(f"unknown backend {backend!r}")
    return state.to_dense() if backend == "dense" else state


def w_reference(n: int) -> QuantumState:
    """The n-qubit target: amplitude 1/sqrt(n) on each single-V basis state."""
    if n < 2:
        raise ValueError(f"reference state needs n >= 2, got {n}")
    amp = 1.0 / math.sqrt(n)
    return QuantumState(n, {1 << (n - k): amp for k in range(1, n + 1)}, "sparse")


def fidelity(a: QuantumState, b: QuantumState) -> float:
    """|<a|b>|**2; symmetric, 1 for identical normalized states."""
    if a.n != b.n:
        raise ValueError(f"state sizes differ: {a.n} vs {b.n}")
    if a.backend == "dense" and b.backend == "dense":
        overlap = float(np.dot(a.amplitudes, b.amplitudes))
    else:
        sp, other = (a, b) if a.backend == "sparse" else (b, a)
        if other.backend == "sparse" and len(other.amplitudes) < len(sp.amplitudes):
            sp, other = other, sp
        overlap = math.fsum(
            v * other.amplitude(k) for k, v in sp.amplitudes.items()
        )
    return overlap * overlap


# --- dense engine ---------------------------------------------------------

def _ix(n: int, fixes: tuple[tuple[int, int], ...]):
    idx: list = [slice(None)] * n
    for qubit, bit in fixes:
        idx[qubit - 1] = bit
    return tuple(idx)


def _dense_apply(
    t: np.ndarray, kind: int, control: int, target: int, angle: float, n: int
) -> None:
    if kind == CNOT_CODE:
        i10 = _ix(n, ((control, 1), (target, 0)))
        i11 = _ix(n, ((control, 1), (target, 1)))
        tmp = t[i10].copy()
        t[i10] = t[i11]
        t[i11] = tmp
    elif kind == CZ_CODE:
        t[_ix(n, ((control, 1), (target, 1)))] *= -1.0
    else:  # ROT or F: mix the target-bit pair, F only in the control=1 sector
        if kind == F_CODE:
            i0 = _ix(n, ((control, 1), (target, 0)))
            i1 = _ix(n, ((control, 1), (target, 1)))
        else:
            i0 = _ix(n, ((target, 0),))
            i1 = _ix(n, ((target, 1),))
        c, s = math.cos(angle), math.sin(angle)
        a0 = t[i0].copy()
        t[i0] = c * a0 + s * t[i1]
        t[i1] = s * a0 - c * t[i1]


class _DenseEngine:
    """Run-private copy of a dense amplitude array, one gate per op."""

    def __init__(self, n: int, amplitudes: np.ndarray):
        self.n = n
        self.vec = amplitudes.copy()

    def steps(self, gates: GateColumns):
        """Apply the gates in order; after each, yield its row and the live
        amplitudes."""
        t = self.vec.reshape((2,) * self.n)
        rows = zip(
            gates.kind.tolist(), gates.control.tolist(), gates.target.tolist(),
            gates.angle.tolist(),
        )
        for i, row in enumerate(rows):
            _dense_apply(t, *row, self.n)
            yield i, self.vec

    def amplitudes(self) -> np.ndarray:
        return self.vec


# --- sparse engine --------------------------------------------------------

def _fusion_plan(gates: GateColumns) -> np.ndarray:
    """First row of each op: a maximal run of consecutive CNOTs that share a
    target is one op, every other gate is its own op.

    A run can be applied as one XOR of its control rows into the target row,
    exactly: no control of the run is its target, so no CNOT of the run
    changes a control row, the CNOTs commute, and XOR is exact.
    """
    cnot = gates.kind == CNOT_CODE
    joins = cnot[1:] & cnot[:-1] & (gates.target[1:] == gates.target[:-1])
    # The slice drops the one start an empty circuit would otherwise get.
    return np.flatnonzero(np.concatenate(([True], ~joins)))[: len(gates)]


class _SparseEngine:
    """Run-private scratch: bit matrix (n x capacity) + amplitude vector."""

    def __init__(self, n: int, items: dict):
        self.n = n
        self.m = len(items)
        cap = max(2 * self.m, 16)
        self.bits = np.zeros((n, cap), dtype=np.uint8)
        self.amps = np.zeros(cap)
        width = (n + 7) // 8
        raw = b"".join(int(key).to_bytes(width, "big") for key in items)
        rows = np.frombuffer(raw, dtype=np.uint8).reshape(self.m, width)
        self.bits[:, : self.m] = np.unpackbits(rows, axis=1)[:, 8 * width - n :].T
        self.amps[: self.m] = np.fromiter(items.values(), np.float64, self.m)

    def _grow(self, needed: int) -> None:
        cap = self.amps.shape[0]
        if needed <= cap:
            return
        new_cap = max(2 * cap, needed)
        bits = np.zeros((self.n, new_cap), dtype=np.uint8)
        amps = np.zeros(new_cap)
        bits[:, : self.m] = self.bits[:, : self.m]
        amps[: self.m] = self.amps[: self.m]
        self.bits, self.amps = bits, amps

    def _compact(self) -> None:
        m = self.m
        live = np.abs(self.amps[:m]) >= PRUNE_THRESHOLD
        if live.all():
            return
        k = int(live.sum())
        self.bits[:, :k] = self.bits[:, :m][:, live]
        self.amps[:k] = self.amps[:m][live]
        self.m = k

    def _mix(self, control: int | None, target: int, alpha: float) -> None:
        m = self.m
        if control is None:
            idxs = np.arange(m)
        else:
            idxs = np.flatnonzero(self.bits[control - 1, :m])
            if idxs.size == 0:
                return
        c, s = math.cos(alpha), math.sin(alpha)
        sub = self.bits[:, idxs]
        tvals = sub[target - 1].copy()
        sub[target - 1] = 0
        keys = np.ascontiguousarray(sub.T)
        # Sector = all untouched bits; each sector holds at most two rows
        # (target bit 0 and 1), mixed by R(alpha).
        sectors: dict[bytes, list[int]] = {}
        order: list[list[int]] = []
        for j in range(idxs.size):
            key = keys[j].tobytes()
            slot = sectors.get(key)
            if slot is None:
                slot = [-1, -1]
                sectors[key] = slot
                order.append(slot)
            slot[int(tvals[j])] = int(idxs[j])
        appends: list[tuple[int, int, float]] = []
        for i0, i1 in order:
            a0 = self.amps[i0] if i0 >= 0 else 0.0
            a1 = self.amps[i1] if i1 >= 0 else 0.0
            b0 = c * a0 + s * a1
            b1 = s * a0 - c * a1
            if i0 >= 0:
                self.amps[i0] = b0
            elif abs(b0) >= PRUNE_THRESHOLD:
                appends.append((i1, 0, b0))
            if i1 >= 0:
                self.amps[i1] = b1
            elif abs(b1) >= PRUNE_THRESHOLD:
                appends.append((i0, 1, b1))
        if appends:
            self._grow(self.m + len(appends))
            for src, tbit, amp in appends:
                i = self.m
                self.bits[:, i] = self.bits[:, src]
                self.bits[target - 1, i] = tbit
                self.amps[i] = amp
                self.m = i + 1
        self._compact()

    def steps(self, gates: GateColumns):
        """Apply the gates in order, each fused CNOT run as one op; after
        each op, yield the row of its last gate and the live amplitudes."""
        starts = _fusion_plan(gates)
        ends = [*starts[1:].tolist(), len(gates)]
        rows = zip(
            starts.tolist(), ends, gates.kind[starts].tolist(),
            gates.control[starts].tolist(), gates.target[starts].tolist(),
            gates.angle[starts].tolist(),
        )
        for start, end, kind, control, target, angle in rows:
            m = self.m
            if kind == CNOT_CODE:
                fan_in = self.bits[gates.control[start:end] - 1, :m]
                self.bits[target - 1, :m] ^= np.bitwise_xor.reduce(fan_in, axis=0)
            elif kind == CZ_CODE:
                both = (self.bits[control - 1, :m] & self.bits[target - 1, :m]) != 0
                if both.any():
                    self.amps[:m][both] *= -1.0
            else:
                self._mix(control if kind == F_CODE else None, target, angle)
            yield end - 1, self.amps[: self.m]

    def amplitudes(self) -> dict[int, float]:
        m = self.m
        width = (self.n + 7) // 8
        pad = 8 * width - self.n
        # Row i of the transposed bits packs to key i: bytes
        # [i * width, (i + 1) * width) of one buffer.  Packing a contiguous
        # copy is several times faster than packing the strided view.
        packed = np.packbits(np.ascontiguousarray(self.bits[:, :m].T), axis=1).tobytes()
        return {
            int.from_bytes(packed[i * width : (i + 1) * width], "big") >> pad: amp
            for i, amp in enumerate(self.amps[:m].tolist())
        }


# --- public execution API -------------------------------------------------

def resolve_backend(n: int, backend: str, *, auto_threshold: int = AUTO_DENSE_MAX) -> str:
    """The backend, "dense" or "sparse", that runs n qubits: "auto" maps
    through pick_backend, and CapacityError is raised if the backend cannot
    run n qubits.  Cheap, so callers resolve before building anything."""
    if backend == "auto":
        backend = pick_backend(n, auto_threshold)
    cap = {"dense": DENSE_QUBIT_CAP, "sparse": SPARSE_QUBIT_CAP}.get(backend)
    if cap is None:
        raise ValueError(f"unknown backend {backend!r}")
    if n > cap:
        raise CapacityError(f"{backend} backend capped at {cap} qubits (got {n})")
    return backend


def _execute(state: QuantumState, gates: GateColumns, check_norm: bool) -> QuantumState:
    """Run the gates on the state's own backend; with check_norm, fail at
    the first op after which the norm leaves 1 by more than 1e-10."""
    engine_type = _DenseEngine if state.backend == "dense" else _SparseEngine
    engine = engine_type(state.n, state.amplitudes)
    for last, live in engine.steps(gates):
        if check_norm:
            norm_sq = float(np.dot(live, live))
            if abs(norm_sq - 1.0) > 1e-10:
                raise RuntimeError(f"norm drifted to {norm_sq!r} after {gates[last]}")
    return QuantumState(state.n, engine.amplitudes(), state.backend)


def run(
    circuit: Circuit,
    state: QuantumState,
    *,
    backend: str | None = None,
    auto_threshold: int = AUTO_DENSE_MAX,
    check_norm: bool = False,
) -> QuantumState:
    """Apply the circuit's gates in list order to the input state.

    backend None keeps the input's backend; "auto" picks dense for
    n <= auto_threshold, sparse above.  Deterministic: identical inputs
    give bit-identical outputs.
    """
    if circuit.n_qubits != state.n:
        raise ValueError(
            f"circuit has {circuit.n_qubits} qubits, state has {state.n}"
        )
    chosen = resolve_backend(
        state.n, backend or state.backend, auto_threshold=auto_threshold
    )
    state = state.to_dense() if chosen == "dense" else state.to_sparse()
    return _execute(state, circuit.gates, check_norm)


def apply_gate(state: QuantumState, gate: Gate) -> QuantumState:
    """Apply a single gate, staying on the state's backend."""
    if gate.target > state.n or (gate.control is not None and gate.control > state.n):
        raise ValueError(f"gate {gate} exceeds {state.n} qubits")
    return _execute(state, columns_of((gate,)), check_norm=False)


def dump_state(state: QuantumState) -> str:
    """Text dump: '<bitstring> <amplitude>' per nonzero entry, sorted by
    descending |amplitude| then bitstring; 17 significant digits."""
    entries = [(bits_of(k, state.n), v) for k, v in state.items()]
    entries.sort(key=lambda e: (-abs(e[1]), e[0]))
    return "".join(f"{b} {v:.17g}\n" for b, v in entries)
