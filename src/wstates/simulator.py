"""Dense and sparse statevector execution for real-valued circuits.

Dense states are float64 arrays of length 2**n (mode 1 = most significant
bit), good to DENSE_QUBIT_CAP qubits.  Sparse states map basis index ->
amplitude and hold only nonzero entries; the W-preparation family never
exceeds n simultaneous nonzeros, so sparse runs scale to thousands of
qubits.  Amplitudes are real by construction (every gate matrix is real),
so no complex storage exists anywhere.

There is one execution path.  resolve_backend maps "auto" for every run
and is the only qubit-cap check: the caps are the constants DENSE_QUBIT_CAP
and SPARSE_QUBIT_CAP, and QuantumState.to_dense checks its dense storage
through it too, as does basis_state for every backend but "sparse", which
is storage only and has no run cap.
run converts the input to that backend's storage and, like apply_gate,
hands it to _execute.  _execute reads the gate columns (see gates.py) and
plans the ops once with _fusion_plan: each fan-in layer, a maximal run of
consecutive CNOTs that share a target, is one op, every other gate its own.
Its loop is the only op loop and the only branch on gate kind; with
check_norm it checks the norm after each op.  An engine only says how to
apply an op, through cnots(controls, target), cz(control, target) and
mix(control or None, target, angle).  The dense engine swaps one control at
a time in gate order.  The sparse engine keeps each key as 64-bit words
beside an amplitude vector: a CNOT run flips the target bit where the key
has odd parity under one mask, the XOR of the control bits (the same bits
as one CNOT at a time), a CZ is one masked sign flip, and mix pairs rows by
one stable sort.  Keys cross its boundary in one bytes buffer.  A mix
appends every missing partner; _compact, which ends each mix, is the only
place that drops rows, those below PRUNE_THRESHOLD (with this circuit family
only numerically-zero residue).  Its support is not known in advance, so it
raises CapacityError before an allocation would pass SPARSE_ENGINE_BYTES.
"""
from __future__ import annotations

import math
import numbers
import operator
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
    _frozen_column,
    columns_of,
)

DENSE_QUBIT_CAP = 24
SPARSE_QUBIT_CAP = 10000
SPARSE_ENGINE_BYTES = 1 << 28  # holds 16384 rows of SPARSE_QUBIT_CAP qubits
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


def pick_backend(n: int) -> str:
    return "dense" if n <= AUTO_DENSE_MAX else "sparse"


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
            arr = _frozen_column(np.ascontiguousarray, self.amplitudes, np.float64, "amplitudes")
            if arr.shape != (1 << self.n,):
                raise ValueError("dense amplitude array has wrong length")
            object.__setattr__(self, "amplitudes", arr)
        elif self.backend == "sparse":
            bound = 1 << self.n
            items = {}
            for k, v in self.amplitudes.items():
                try:
                    k = operator.index(k)
                except TypeError:
                    raise ValueError(f"basis index {k!r} is not an integer") from None
                if not isinstance(v, numbers.Real):
                    raise ValueError("amplitudes must be real")
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
    """Computational basis state |bits>, e.g. basis_state(3, "VHH").

    "sparse" is storage only and applies no run cap; "auto" and "dense" go
    through resolve_backend, so they raise its CapacityError above the cap.
    """
    if len(bits) != n:
        raise ValueError(f"expected {n} characters, got {len(bits)}")
    state = QuantumState(n, {encode_bits(bits): 1.0}, "sparse")
    if backend == "sparse":
        return state
    return state.to_dense() if resolve_backend(n, backend) == "dense" else state


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
        overlap = math.fsum(
            v * other.amplitude(k) for k, v in sp.amplitudes.items()
        )
    return overlap * overlap


# --- engines: cnots, cz, mix, live, amplitudes ----------------------------

def _ix(n: int, target: int, bit: int, control: int | None = None):
    """Index of the target=bit half of an n-axis tensor, or its control=1 quarter."""
    idx: list = [slice(None)] * n
    if control is not None:
        idx[control - 1] = 1
    idx[target - 1] = bit
    return tuple(idx)


class _DenseEngine:
    """Run-private copy of a dense amplitude array, viewed as n axes."""

    def __init__(self, n: int, amplitudes: np.ndarray):
        self.n = n
        self.vec = amplitudes.copy()
        self.t = self.vec.reshape((2,) * n)

    def cnots(self, controls: np.ndarray, target: int) -> None:
        t = self.t
        for control in controls.tolist():
            i10 = _ix(self.n, target, 0, control)
            i11 = _ix(self.n, target, 1, control)
            tmp = t[i10].copy()
            t[i10] = t[i11]
            t[i11] = tmp

    def cz(self, control: int, target: int) -> None:
        self.t[_ix(self.n, target, 1, control)] *= -1.0

    def mix(self, control: int | None, target: int, alpha: float) -> None:
        t = self.t
        i0 = _ix(self.n, target, 0, control)
        i1 = _ix(self.n, target, 1, control)
        c, s = math.cos(alpha), math.sin(alpha)
        a0 = t[i0].copy()
        t[i0] = c * a0 + s * t[i1]
        t[i1] = s * a0 - c * t[i1]

    def live(self) -> np.ndarray:
        return self.vec

    def amplitudes(self) -> np.ndarray:
        return self.vec


class _SparseEngine:
    """Run-private scratch: key words (W x capacity uint64) + amplitude vector.
    Column i is key i in W big-endian words, right-aligned: qubit q is at bit
    position offset + q, where bit p is 1 << (63 - p % 64) of word p // 64."""

    def __init__(self, n: int, items: dict):
        self.n = n
        self.w = -(-n // 64)
        self.offset = 64 * self.w - n - 1
        self.m = 0
        self.keys = np.zeros((self.w, 0), dtype=np.uint64)
        self.amps = np.zeros(0)
        self._grow(len(items))
        self.m = len(items)
        raw = b"".join(int(key).to_bytes(8 * self.w, "big") for key in items)
        self.keys[:, : self.m] = np.frombuffer(raw, dtype=">u8").reshape(self.m, self.w).T
        self.amps[: self.m] = np.fromiter(items.values(), np.float64, self.m)

    def _grow(self, needed: int) -> None:
        """The only allocation: needed rows of 4 * (8W + 8) bytes, within SPARSE_ENGINE_BYTES."""
        # A row's words and amplitude take 8W + 8 bytes; the factor covers the
        # temporaries of a mix over the whole support.
        cap = self.amps.shape[0]
        if needed <= cap:
            return
        limit = SPARSE_ENGINE_BYTES // (4 * (8 * self.w + 8))
        if needed > limit:
            raise CapacityError(f"sparse support of {needed} entries at {self.n} qubits "
                                f"exceeds the {SPARSE_ENGINE_BYTES}-byte engine budget")
        new_cap = min(max(2 * cap, needed, 16), limit)
        keys = np.zeros((self.w, new_cap), dtype=np.uint64)
        amps = np.zeros(new_cap)
        keys[:, : self.m] = self.keys[:, : self.m]
        amps[: self.m] = self.amps[: self.m]
        self.keys, self.amps = keys, amps

    def _compact(self) -> None:
        m = self.m
        live = np.abs(self.amps[:m]) >= PRUNE_THRESHOLD
        if live.all():
            return
        k = int(live.sum())
        self.keys[:, :k] = self.keys[:, :m][:, live]
        self.amps[:k] = self.amps[:m][live]
        self.m = k

    def _bit(self, qubit: int) -> tuple[int, int]:
        """The word that holds a qubit, and the qubit's mask in it."""
        pos = self.offset + qubit
        return pos // 64, 1 << (63 - pos % 64)

    def _has(self, qubit: int) -> np.ndarray:
        """Which live rows have the qubit set."""
        word, bit = self._bit(qubit)
        return self.keys[word, : self.m] & bit != 0

    def cnots(self, controls: np.ndarray, target: int) -> None:
        """Flip the target where the key has odd parity under the run's mask.
        The mask is the XOR of the control bits, so a repeated control cancels."""
        m = self.m
        flips = np.bincount(self.offset + controls, minlength=64 * self.w) & 1
        mask = np.packbits(flips).view(">u8").astype(np.uint64)
        parity = np.bitwise_count(np.bitwise_xor.reduce(self.keys[:, :m] & mask[:, None], axis=0))
        word, bit = self._bit(target)
        self.keys[word, :m] ^= (parity & 1) * np.uint64(bit)

    def cz(self, control: int, target: int) -> None:
        self.amps[: self.m][self._has(control) & self._has(target)] *= -1.0

    def mix(self, control: int | None, target: int, alpha: float) -> None:
        m = self.m
        rows = np.arange(m) if control is None else np.flatnonzero(self._has(control))
        if rows.size == 0:
            return
        c, s = math.cos(alpha), math.sin(alpha)
        word, bit = self._bit(target)
        # Sector = all untouched bits; each sector holds at most two rows
        # (target bit 0 and 1), mixed by R(alpha).  A row without a partner
        # mixes with 0.0, and the partner is appended in source-row order;
        # _compact then drops the rows below PRUNE_THRESHOLD.
        if rows.size <= 2:
            # The F sectors of the W network: scalars beat a dozen tiny arrays.
            rows = rows.tolist()
            keys = [self.keys[:, r].tolist() for r in rows]
            ones = [k[word] & bit != 0 for k in keys]
            amps = [self.amps.item(r) for r in rows]
            keys[0][word] ^= bit
            paired = len(rows) == 2 and keys[0] == keys[1]
            src, vals = [], []
            for r, one, a, p in zip(rows, ones, amps, amps[::-1] if paired else (0.0, 0.0)):
                a0, a1 = (p, a) if one else (a, p)
                b0, b1 = c * a0 + s * a1, s * a0 - c * a1
                self.amps[r] = b1 if one else b0
                if not paired:
                    src.append(r)
                    vals.append(b0 if one else b1)
        else:
            sub = self.keys[:, rows]
            ones = (sub[word] & bit) != 0
            sub[word] &= ~np.uint64(bit)
            order = np.lexsort(sub[::-1])
            ranked = sub[:, order]
            pair = (ranked[:, 1:] == ranked[:, :-1]).all(axis=0)
            lo, hi = order[:-1][pair], order[1:][pair]
            amps = self.amps[rows]
            partner = np.zeros(rows.size)
            partner[lo], partner[hi] = amps[hi], amps[lo]
            lone = np.ones(rows.size, dtype=bool)
            lone[lo] = lone[hi] = False
            a0, a1 = np.where(ones, partner, amps), np.where(ones, amps, partner)
            b0, b1 = c * a0 + s * a1, s * a0 - c * a1
            self.amps[rows] = np.where(ones, b1, b0)
            src, vals = rows[lone], np.where(ones, b0, b1)[lone]
        end = m + len(src)
        self._grow(end)
        self.keys[:, m:end] = self.keys[:, src]
        self.keys[word, m:end] ^= np.uint64(bit)
        self.amps[m:end] = vals
        self.m = end
        self._compact()

    def live(self) -> np.ndarray:
        return self.amps[: self.m]

    def amplitudes(self) -> dict[int, float]:
        # Column i of the keys, as one big-endian row of W words, is key i:
        # bytes [i * size, (i + 1) * size) of one buffer.
        size = 8 * self.w
        raw = self.keys[:, : self.m].T.astype(">u8").tobytes()
        return {
            int.from_bytes(raw[i * size : (i + 1) * size], "big"): amp
            for i, amp in enumerate(self.amps[: self.m].tolist())
        }


# --- public execution API -------------------------------------------------

def resolve_backend(n: int, backend: str) -> str:
    """The backend, "dense" or "sparse", that runs n qubits: "auto" maps
    through pick_backend, and CapacityError is raised if the backend cannot
    run n qubits.  Cheap, so callers resolve before building anything."""
    if backend == "auto":
        backend = pick_backend(n)
    cap = {"dense": DENSE_QUBIT_CAP, "sparse": SPARSE_QUBIT_CAP}.get(backend)
    if cap is None:
        raise ValueError(f"unknown backend {backend!r}")
    if n > cap:
        raise CapacityError(f"{backend} backend capped at {cap} qubits (got {n})")
    return backend


def _fusion_plan(gates: GateColumns) -> np.ndarray:
    """First row of each op: a maximal run of consecutive CNOTs that share a
    target is one op, every other gate is its own op.

    A run can be applied as one op, exactly: no control of the run is its
    target, so no CNOT of the run changes a control, and the CNOTs commute
    (so is the sparse engine's parity under the XOR of the control bits).
    """
    cnot = gates.kind == CNOT_CODE
    joins = cnot[1:] & cnot[:-1] & (gates.target[1:] == gates.target[:-1])
    # The slice drops the one start an empty circuit would otherwise get.
    return np.flatnonzero(np.concatenate(([True], ~joins)))[: len(gates)]


def _execute(state: QuantumState, gates: GateColumns, check_norm: bool) -> QuantumState:
    """Run the gates on the state's own backend, one op of the fusion plan
    at a time; with check_norm, fail at the first op after which the norm
    leaves 1 by more than 1e-10, naming the op's last gate."""
    engine_type = _DenseEngine if state.backend == "dense" else _SparseEngine
    engine = engine_type(state.n, state.amplitudes)
    starts = _fusion_plan(gates)
    ends = [*starts[1:].tolist(), len(gates)]
    rows = zip(
        starts.tolist(), ends, gates.kind[starts].tolist(),
        gates.control[starts].tolist(), gates.target[starts].tolist(),
        gates.angle[starts].tolist(),
    )
    for start, end, kind, control, target, angle in rows:
        if kind == CNOT_CODE:
            engine.cnots(gates.control[start:end], target)
        elif kind == CZ_CODE:
            engine.cz(control, target)
        else:
            engine.mix(control if kind == F_CODE else None, target, angle)
        if check_norm:
            live = engine.live()
            norm_sq = float(np.dot(live, live))
            if abs(norm_sq - 1.0) > 1e-10:
                raise RuntimeError(f"norm drifted to {norm_sq!r} after {gates[end - 1]}")
    return QuantumState(state.n, engine.amplitudes(), state.backend)


def run(
    circuit: Circuit,
    state: QuantumState,
    *,
    backend: str | None = None,
    check_norm: bool = False,
) -> QuantumState:
    """Apply the circuit's gates in list order to the input state.

    backend None keeps the input's backend; "auto" picks dense for
    n <= AUTO_DENSE_MAX, sparse above.  Deterministic: identical inputs
    give bit-identical outputs.
    """
    if circuit.n_qubits != state.n:
        raise ValueError(
            f"circuit has {circuit.n_qubits} qubits, state has {state.n}"
        )
    chosen = resolve_backend(state.n, backend or state.backend)
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
