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
run converts the input to that backend's storage and hands the circuit's
ops() to _execute, its only caller.  A Circuit's ops come from its gate
columns (see gates.py): each fan-in layer, a maximal run of consecutive
CNOTs that share a target, is one op, every other gate its own.  The W
network (synthesis.WNetwork) yields the same ops from its closed form.
_plan turns them into single gates for both engines: a nested chain of
fan-in layers becomes a CNOT ladder, any other run its CNOTs in order.
_execute's loop is the only op loop and the only dispatch on gate kind; with
check_norm it checks the norm after each gate.  An engine applies one gate:
cnot(control, target), cz(control, target) or mix(control or None, target,
angle).  The dense engine keeps the state flat and reads the two halves a
CNOT or mix pairs as np.void blocks of the free run below the gate's lowest
qubit; it swaps or mixes them _CHUNK amplitudes at a time in four buffers it
owns, so no gate allocates more than a chunk.  Its live map, one flag per
row of _CHUNK amplitudes, tells the rows that hold only +0.0 bits; a CNOT or
mix skips each chunk that lies in such rows only, unless the mix's angle has
a negative sine and makes -0.0 of +0.0; a CZ, which does too, marks the rows
it negates live.  So a W-network run from a basis state copies the chunks of
a few rows at each gate, not all 2**n amplitudes, and gives the same bits.
The sparse engine keeps each key as 64-bit words beside an amplitude vector
(crossing its boundary in one bytes buffer): a CNOT XORs the target bit of
the rows that hold the control, a CZ is one masked sign flip.  A mix keeps
+-c of each selected row and adds s of its partner, and appends each missing
partner as s of its row.  It finds the partners by one stable sort when the
rows hold both values of the target bit (a W coupler's one row has none),
unless it holds them already: a mix of every row keeps its pairing on the
target as row numbers, and the next uncontrolled mix on that target reuses
it, so the plates of a lowered coupler sort at most once.  A CNOT controlled
by that target, any other mix, and a _compact that drops a row end the
pairing; CZs and other CNOTs leave partners partners.  Only _compact, which
ends each mix, drops rows (below PRUNE_THRESHOLD); a one-row mix skips it
when the support is pruned and neither value it wrote is below.  With no
support bound known, _grow raises CapacityError before passing
SPARSE_ENGINE_BYTES.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Mapping
from dataclasses import dataclass
from itertools import compress

import numpy as np

from .base import _WRITE_BLOCK, CNOT_CODE, CZ_CODE, F_CODE, _blocks, _qubit_count
from .errors import CapacityError
from .gates import Circuit, _frozen_column, _gate_of

DENSE_QUBIT_CAP = 24
SPARSE_QUBIT_CAP = 10000
SPARSE_ENGINE_BYTES = 1 << 28  # holds 16384 rows of SPARSE_QUBIT_CAP qubits
AUTO_DENSE_MAX = 20
PRUNE_THRESHOLD = 1e-15
_NORM_GUARD = 1e-9
_CHUNK = 1 << 14  # amplitudes of each half a dense gate holds in its buffers at once
_BINARY = str.maketrans("HV", "01")  # encode_bits reads H as 0 and V as 1


def bits_of(index: int, n: int) -> str:
    """Render a basis index as an n-character 0/1 string, mode 1 leftmost."""
    return format(index, f"0{n}b")


def encode_bits(bits: str) -> int:
    """Basis index of an 'H'/'V' (or '0'/'1') string, mode 1 leftmost."""
    digits = bits.translate(_BINARY)
    bad = digits.lstrip("01")
    if bad:
        raise ValueError(f"bad polarization character {bad[0]!r}")
    return int(digits, 2) if digits else 0


@dataclass(frozen=True, slots=True, eq=False, repr=False)
class QuantumState:
    """Real amplitudes over the n-qubit computational basis.

    The storage names the backend: a mapping {basis index: amplitude} is
    sparse, and anything else is dense, read as a float64 array of length
    2**n.  Instances are immutable snapshots: dense input is copied into a
    read-only array, as GateColumns copies its columns, and sparse mappings
    are copied into a dict with zero entries dropped.
    """

    n: int
    amplitudes: dict | np.ndarray

    @classmethod
    def _adopt(cls, n: int, amplitudes) -> QuantumState:
        """A state over arrays made inside this package and held nowhere else:
        taken over without a copy, marked read-only and checked as by the
        constructor.  Spares a dense run or basis state a second 2**n array."""
        self = cls.__new__(cls)
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "amplitudes", amplitudes)
        self.__post_init__(np.asarray)
        return self

    def __post_init__(self, convert=np.array):
        object.__setattr__(self, "n", _qubit_count(self.n))
        if self.n < 0:
            raise ValueError(f"qubit count {self.n} is negative")
        if isinstance(self.amplitudes, Mapping):
            items = {}
            for k, v in self.amplitudes.items():
                k = self._index(k)
                if not isinstance(v, numbers.Real):
                    raise ValueError("amplitudes must be real")
                if v != 0.0:
                    items[k] = float(v)
            object.__setattr__(self, "amplitudes", items)
        else:
            arr = _frozen_column(convert, self.amplitudes, np.float64, "amplitudes")
            # No array holds 2**64 entries, so a larger n needs no n-bit length.
            if arr.shape != (1 << min(self.n, 64),):
                raise ValueError("dense amplitude array has wrong length")
            object.__setattr__(self, "amplitudes", arr)
        # Written so that a NaN norm fails the check too.
        if not abs(self.norm_squared() - 1.0) <= _NORM_GUARD:
            raise ValueError("state is not normalized")

    @property
    def backend(self) -> str:
        return "sparse" if isinstance(self.amplitudes, dict) else "dense"

    def __repr__(self):
        return (
            f"QuantumState(n={self.n}, backend={self.backend!r}, "
            f"support={self.support_size()})"
        )

    def _index(self, index) -> int:
        """index as a plain int; ValueError unless 0 <= index < 2**n."""
        k = _qubit_count(index, "basis index")
        if k < 0 or k.bit_length() > self.n:
            raise ValueError(f"basis index {k} does not fit {self.n} qubits")
        return k

    def amplitude(self, index: int) -> float:
        """The amplitude of basis state index; ValueError unless 0 <= index < 2**n."""
        k = self._index(index)
        if self.backend == "dense":
            return float(self.amplitudes[k])
        return self.amplitudes.get(k, 0.0)

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
        return QuantumState._adopt(self.n, vec)

    def to_sparse(self) -> "QuantumState":
        if self.backend == "sparse":
            return self
        return QuantumState(self.n, dict(self.items()))


def basis_state(n: int, bits: str, backend: str = "auto") -> QuantumState:
    """Computational basis state |bits>, e.g. basis_state(3, "VHH").

    "sparse" is storage only and applies no run cap; "auto" and "dense" go
    through resolve_backend, so they raise its CapacityError above the cap.
    """
    if len(bits) != n:
        raise ValueError(f"expected {n} characters, got {len(bits)}")
    state = QuantumState(n, {encode_bits(bits): 1.0})
    if backend == "sparse":
        return state
    return state.to_dense() if resolve_backend(n, backend) == "dense" else state


def w_reference(n: int) -> QuantumState:
    """The n-qubit target: amplitude 1/sqrt(n) on each single-V basis state."""
    n = _qubit_count(n)
    if n < 2:
        raise ValueError(f"reference state needs n >= 2, got {n}")
    amp = 1.0 / math.sqrt(n)
    return QuantumState(n, {1 << (n - k): amp for k in range(1, n + 1)})


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


# --- engines: cnot, cz, mix, live, amplitudes -----------------------------

class _DenseEngine:
    """Run-private flat copy of a dense amplitude array, four float buffers
    of up to _CHUNK amplitudes each, in which CNOTs and mixes work, and the
    live map.

    The live map holds one flag per row of _CHUNK amplitudes: the top
    n - log2(_CHUNK) qubits, the row qubits, index the rows (there is one
    row if the state is no longer than _CHUNK), and the other qubits, the
    column qubits, index a row's amplitudes.  It is read from the input, and
    a row's flag is False only while the row holds nothing but +0.0 bits.

    A CNOT or mix skips each chunk whose two halves lie in dead rows only,
    when its kernel maps (+0.0, +0.0) to (+0.0, +0.0) bit for bit: a CNOT
    always, a mix unless the sine of its angle is negative (see mix).  A
    chunk it does not skip goes through the same copies and ufuncs as with
    every row live, so no bit of the state depends on the map.  A CZ cannot
    skip, because -1.0 times +0.0 is -0.0: it multiplies every amplitude it
    selects and marks every row it touches live."""

    def __init__(self, n: int, amplitudes: np.ndarray):
        self.n = n
        self.flat = amplitudes.copy()
        self.buffers = np.empty((4, min(_CHUNK, (1 << n) // 2)))
        rows = max(1, (1 << n) // _CHUNK)
        live = self.flat.view(np.uint64).reshape(rows, -1).max(axis=1) != 0
        self.live_map = live.reshape((2,) * (rows.bit_length() - 1))  # an axis per row qubit

    def _rows(self, held: dict[int, int]) -> np.ndarray:
        """The view of the live map over the rows whose row qubits in held
        have their bits there; a column qubit in held selects nothing."""
        axes = (slice(held[q], held[q] + 1) if q in held else slice(None)
                for q in range(1, self.live_map.ndim + 1))
        return self.live_map[(..., *axes)]

    def _shape(self, qubits: list[int], block: int) -> list[int]:
        """Axes that split the state at the ascending qubits: the free run
        above each qubit, a 2 for the qubit, then the run below the last in
        blocks of block amplitudes."""
        shape, top = [], 1
        for q in qubits:
            shape += [1 << (q - top), 2]
            top = q + 1
        return shape + [(1 << (self.n - top + 1)) // block]

    def _pairs(self, control: int | None, target: int, kernel, skip: bool = True) -> None:
        """Pass the two halves a gate pairs, target bit 0 and 1 with the
        control bit 1, through kernel(a, b, sa, sb) a chunk at a time, or
        swap them if kernel is None.  With skip, the chunks whose halves lie
        in dead rows only are left out.

        The halves are views of the state as np.void blocks, each at most
        _CHUNK amplitudes of the free run below the gate's lowest qubit, so
        a copy walks long rows of blocks and never short rows of floats.  A
        chunk of at most _CHUNK amplitudes of each half is copied into the
        buffers a and b, kernel works on them in place with the buffers sa
        and sb, and a and b are copied back.  A swap copies one half's chunk
        through a buffer and the other's straight across."""
        held = {} if control is None else {control: 1}
        qubits = sorted([*held, target])
        block = min(1 << (self.n - qubits[-1]), _CHUNK)
        void = np.dtype((np.void, 8 * block))
        view = self.flat.view(void).reshape(self._shape(qubits, block))
        half_a, half_b = (
            view[tuple(i for q in qubits for i in (slice(None), held.get(q, bit)))]
            for bit in (0, 1)
        )
        # Cut the halves' axes into leading ones, one chunk per index, and
        # trailing ones of at most _CHUNK // block blocks in all.
        dims, room = list(half_a.shape), _CHUNK // block
        lead = len(dims)
        while lead and dims[lead - 1] <= room:
            lead -= 1
            room //= dims[lead]
        if lead:
            dims[lead - 1 : lead] = [dims[lead - 1] // room, room]
        half_a, half_b = half_a.reshape(dims), half_b.reshape(dims)
        chunk = dims[lead:]
        floats = tuple(self.buffers[:, : math.prod(chunk) * block])
        a, b = (f.view(void).reshape(chunk) for f in floats[:2])
        chunks = np.ndindex(*dims[:lead])
        if not self.live_map.all():
            rows_a, rows_b = (self._rows({**held, target: bit}) for bit in (0, 1))
            if skip:
                # A chunk fixes the first f free qubits, and the free row
                # qubits come first: it covers the rows that agree with it on
                # the first f of them, or, past the rows, part of one row.
                f = math.prod(dims[:lead]).bit_length() - 1
                live = (rows_a | rows_b).reshape(-1)
                free_rows = live.size.bit_length() - 1
                live = live.reshape(1 << min(f, free_rows), -1).any(axis=1)
                chunks = compress(chunks, live.repeat(1 << max(f - free_rows, 0)).tolist())
            # The flags after the gate, from those before it.  With the target
            # a column qubit, rows_a and rows_b are one view and nothing
            # changes, unless a mix that cannot skip writes -0.0 there.
            if kernel is None and control <= self.live_map.ndim:
                rows_a[...], rows_b[...] = rows_b.copy(), rows_a.copy()
            elif skip:
                rows_a |= rows_b
                rows_b[...] = rows_a
            else:
                rows_a[...] = rows_b[...] = True
        for i in chunks:
            np.copyto(a, half_a[i])
            if kernel is None:
                np.copyto(half_a[i], half_b[i])
                np.copyto(half_b[i], a)
                continue
            np.copyto(b, half_b[i])
            kernel(*floats)
            np.copyto(half_a[i], a)
            np.copyto(half_b[i], b)

    def cnot(self, control: int, target: int) -> None:
        self._pairs(control, target, None)

    def cz(self, control: int, target: int) -> None:
        qubits = sorted((control, target))
        self.flat.reshape(self._shape(qubits, 1))[:, 1, :, 1] *= -1.0
        self._rows({control: 1, target: 1})[...] = True

    def mix(self, control: int | None, target: int, alpha: float) -> None:
        c, s = math.cos(alpha), math.sin(alpha)

        def rotate(a, b, sa, sb):
            # a, b = c * a + s * b, s * a - c * b: every operand is a buffer
            # or the output itself, so numpy needs no temporary.
            np.multiply(a, s, out=sa)
            np.multiply(a, c, out=a)
            np.multiply(b, s, out=sb)
            np.add(a, sb, out=a)
            np.multiply(b, c, out=b)
            np.subtract(sa, b, out=b)

        # rotate makes (c * 0.0 + s * 0.0, s * 0.0 - c * 0.0) of two +0.0
        # amplitudes: both +0.0 if s is, whatever the sign of c, and one of
        # them -0.0 if s is negative (or -0.0).
        self._pairs(control, target, rotate, math.copysign(1.0, s) > 0)

    def live(self) -> np.ndarray:
        return self.flat

    amplitudes = live


class _SparseEngine:
    """Run-private scratch: key words (W x capacity uint64) + amplitude vector.
    Column i is key i in W big-endian words, right-aligned: qubit q is at bit
    position offset + q, where bit p is 1 << (63 - p % 64) of word p // 64."""

    def __init__(self, n: int, items: dict):
        self.n = n
        self.w = -(-n // 64)
        self.offset = 64 * self.w - n - 1
        self.m = 0
        self.pruned = False  # every live amplitude known to be >= PRUNE_THRESHOLD
        self.pair = None  # (t, partner row of each row) while every row has its partner on t
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
        # kept pairing's 8 and the temporaries of a mix over the whole support.
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
        self.pruned = True
        if live.all():
            return
        self.pair = None
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

    def cnot(self, control: int, target: int) -> None:
        # Two partners share every bit but their own, so the pairs survive
        # unless that bit is the control.
        if self.pair is not None and self.pair[0] == control:
            self.pair = None
        word, bit = self._bit(target)
        self.keys[word, : self.m] ^= self._has(control) * np.uint64(bit)

    def cz(self, control: int, target: int) -> None:
        self.amps[: self.m][self._has(control) & self._has(target)] *= -1.0

    def mix(self, control: int | None, target: int, alpha: float) -> None:
        m = self.m
        c, s = math.cos(alpha), math.sin(alpha)
        word, bit = self._bit(target)
        # R(alpha) = [[c, s], [s, -c]]: a row whose target bit is b keeps
        # (-1)**b * c of itself and gains s of its partner, the row whose key
        # differs in that bit alone.  A missing partner is appended, in
        # source-row order, with s of the row; _compact then drops the rows
        # below PRUNE_THRESHOLD.
        if control is None and self.pair is not None and self.pair[0] == target:
            # Every row's partner is known, so no row is appended.
            amps = self.amps[:m]
            self.amps[:m] = np.where(self._has(target), -c, c) * amps + s * amps[self.pair[1]]
            self._compact()
            return
        self.pair = None
        rows = np.arange(m) if control is None else np.flatnonzero(self._has(control))
        if rows.size == 0:
            return
        if rows.size == 1:
            # Every coupler of the W network: scalars beat a dozen tiny arrays,
            # and on a pruned support only the two values written can need
            # _compact.
            r = rows.item()
            a = self.amps.item(r)
            kept, added = (-c if self.keys.item(word, r) & bit else c) * a, s * a
            self._grow(m + 1)
            self.keys[:, m] = self.keys[:, r]
            self.keys[word, m] ^= np.uint64(bit)
            self.amps[r], self.amps[m] = kept, added
            self.m = m + 1
            if not (self.pruned and min(abs(kept), abs(added)) >= PRUNE_THRESHOLD):
                self._compact()
            return
        self._mix_rows(rows, target, c, s, control is None)
        self._compact()

    def _mix_rows(self, rows: np.ndarray, target: int, c: float, s: float, every: bool) -> None:
        """mix on two or more rows, without _compact, so that its temporaries
        are gone before _compact copies the survivors.  If the rows are every
        row, the pairing on target is kept in self.pair."""
        m = self.m
        word, bit = self._bit(target)
        ones = self.keys[word, rows] & bit != 0
        mate = np.full(rows.size, -1)  # the place in rows of each row's partner, or -1
        # A pair holds both values of the target bit, so rows that all share
        # one (every elementary coupler's first ROT) skip the sort.
        if ones.any() and not ones.all():
            sub = self.keys[:, rows]
            sub[word] &= ~np.uint64(bit)
            order = np.lexsort(sub[::-1])
            sub = sub[:, order]
            pair = (sub[:, 1:] == sub[:, :-1]).all(axis=0)
            lo, hi = order[:-1][pair], order[1:][pair]
            mate[lo], mate[hi] = hi, lo
            del sub, order, pair, lo, hi
        lone = mate < 0
        amps = self.amps[rows]
        gain = amps[mate]  # s times the partner, 0.0 for a lone row, in one array
        gain[lone] = 0.0
        gain *= s
        self.amps[rows] = np.where(ones, -c, c) * amps + gain
        del ones, gain  # before _grow, which holds the old arrays and the new
        src = rows[lone]
        end = m + src.size
        self._grow(end)
        self.keys[:, m:end] = self.keys[:, src]
        self.keys[word, m:end] ^= np.uint64(bit)
        self.amps[m:end] = s * amps[lone]
        self.m = end
        if every:
            # mate holds row numbers, and the row appended for a lone row is
            # its partner.
            mate[lone] = np.arange(m, end)
            self.pair = (target, np.concatenate((mate, src)))

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
    """The backend, "dense" or "sparse", that runs n qubits: "auto" is dense
    up to AUTO_DENSE_MAX qubits, and CapacityError is raised if the backend
    cannot run n qubits.  Cheap, so callers resolve before building anything."""
    if backend == "auto":
        backend = "dense" if n <= AUTO_DENSE_MAX else "sparse"
    cap = {"dense": DENSE_QUBIT_CAP, "sparse": SPARSE_QUBIT_CAP}.get(backend)
    if cap is None:
        raise ValueError(f"unknown backend {backend!r}")
    if n > cap:
        raise CapacityError(f"{backend} backend capped at {cap} qubits (got {n})")
    return backend


def _plan(ops):
    """The ops as single gates: every CNOT with an int control, every other
    op passed through.  A run with controls [t, *C] onto u, right after a run
    with controls C onto t, flips u by the old bit t, so it is CNOT(t, u)
    applied before that run.  A chain of such runs is therefore its rungs,
    last first, then the chain's first run as single CNOTs; any other run is
    its CNOTs in order.  Holds one run's controls and the pending CNOTs."""
    pending = []  # (control, target) of the CNOTs still to emit, last first
    for op in ops:
        kind, control, target, _ = op
        if (kind == CNOT_CODE and pending and control[0] == pending[-1][1]
                and np.array_equal(control[1:], controls)):
            pending.append((pending[-1][1], target))
        else:
            yield from ((CNOT_CODE, c, t, 0.0) for c, t in reversed(pending))
            pending = []
            if kind == CNOT_CODE:
                pending = [(c, target) for c in reversed(control.tolist())]
            else:
                yield op
        controls = control
    yield from ((CNOT_CODE, c, t, 0.0) for c, t in reversed(pending))


def _execute(state: QuantumState, ops, check_norm: bool) -> QuantumState:
    """Run the planned gates on the state's own backend, one at a time; with
    check_norm, fail at the first gate after which the norm leaves 1 by more
    than 1e-10, naming that gate."""
    engine_type = _DenseEngine if state.backend == "dense" else _SparseEngine
    engine = engine_type(state.n, state.amplitudes)
    for kind, control, target, angle in _plan(ops):
        if kind == CNOT_CODE:
            engine.cnot(control, target)
        elif kind == CZ_CODE:
            engine.cz(control, target)
        else:
            engine.mix(control if kind == F_CODE else None, target, angle)
        if check_norm:
            live = engine.live()
            norm_sq = float(np.dot(live, live))
            if abs(norm_sq - 1.0) > 1e-10:
                gate = _gate_of(kind, control, target, angle)
                raise RuntimeError(f"norm drifted to {norm_sq!r} after {gate}")
    return QuantumState._adopt(state.n, engine.amplitudes())


def run(
    circuit: Circuit,
    state: QuantumState,
    *,
    backend: str | None = None,
    check_norm: bool = False,
) -> QuantumState:
    """Apply the circuit's gates in list order to the input state.

    circuit is anything with n_qubits and ops(): a Circuit or a WNetwork.
    backend None keeps the input's backend; "auto" picks dense for
    n <= AUTO_DENSE_MAX, sparse above.  Deterministic: identical inputs
    give bit-identical outputs.  A one-gate circuit steps a state by a gate.
    """
    if circuit.n_qubits != state.n:
        raise ValueError(
            f"circuit has {circuit.n_qubits} qubits, state has {state.n}"
        )
    chosen = resolve_backend(state.n, state.backend if backend is None else backend)
    state = state.to_dense() if chosen == "dense" else state.to_sparse()
    return _execute(state, circuit.ops(), check_norm)


def dump_state(state: QuantumState) -> str:
    """Text dump: '<bitstring> <amplitude>' per nonzero entry, sorted by
    descending |amplitude| then bitstring; 17 digits, through base._blocks."""
    return "".join(_dump_blocks(state))


def _dump_blocks(state: QuantumState):
    """dump_state's text, a block of _WRITE_BLOCK lines at a time."""
    n = state.n
    # Bitstrings of one width sort as their indices.
    if state.backend == "sparse":
        entries = sorted(state.items(), key=lambda e: (-abs(e[1]), e[0]))
    else:
        # One lexsort orders a dense state's entries, which become Python
        # numbers _WRITE_BLOCK at a time.
        index = np.flatnonzero(state.amplitudes)
        index = index[np.lexsort((index, -np.abs(state.amplitudes[index])))]
        values = state.amplitudes[index]
        entries = (entry for block in range(0, index.size, _WRITE_BLOCK)
                   for entry in zip(index[block : block + _WRITE_BLOCK].tolist(),
                                    values[block : block + _WRITE_BLOCK].tolist()))
    yield from _blocks(f"{k:0{n}b} {v:.17g}\n" for k, v in entries)
