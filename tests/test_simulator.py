"""Dense and sparse backends: golden states, cross-checks, invariants."""
import hashlib
import math
import tracemalloc
from types import MappingProxyType

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wstates import (
    CNOT,
    CZ,
    CapacityError,
    Circuit,
    F,
    Level,
    QuantumState,
    ROT,
    basis_state,
    build_w_circuit,
    dump_state,
    encode_bits,
    fidelity,
    lower,
    run,
    unitary_of,
    w_reference,
)
from wstates import base, simulator
from wstates.simulator import _CHUNK, resolve_backend


BACKENDS = ("dense", "sparse")


def _input(n, backend):
    return basis_state(n, "V" + "H" * (n - 1), backend=backend)


@pytest.mark.parametrize(
    "n,bits,index", [(3, "VHH", 4), (4, "HHHV", 1), (5, "VHHHH", 16), (3, "101", 5)]
)
def test_basis_state_encoding(n, bits, index):
    for backend in BACKENDS:
        state = basis_state(n, bits, backend=backend)
        assert state.amplitude(index) == 1.0
        assert state.support_size() == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_amplitude_takes_only_a_basis_index_of_the_state(backend):
    state = basis_state(3, "HHV", backend=backend)
    assert state.amplitude(1) == state.amplitude(np.int64(1)) == 1.0
    assert state.amplitude(0) == state.amplitude(7) == 0.0
    # numpy would wrap -7 to entry 1 of the dense array; a dict would miss it.
    for index in (-7, -1, 8):
        with pytest.raises(ValueError, match=rf"^basis index {index} does not fit 3 qubits$"):
            state.amplitude(index)
    for index in (1.0, "x"):
        with pytest.raises(ValueError, match=r"^basis index .* is not an integer$"):
            state.amplitude(index)


def test_encode_bits_accepts_both_alphabets():
    assert encode_bits("VHH") == encode_bits("100") == 4


def _reference_encode_bits(bits):
    """encode_bits one character at a time: the specification of its values
    and of the character its error names."""
    index = 0
    for ch in bits:
        if ch in "H0":
            index <<= 1
        elif ch in "V1":
            index = (index << 1) | 1
        else:
            raise ValueError(f"bad polarization character {ch!r}")
    return index


def _encode_outcome(encode, bits):
    try:
        return encode(bits)
    except ValueError as exc:
        return str(exc)


@example("")
@example("V" + "H0" * 2200 + "x")  # past int()'s digit limit for bases other than 2
@example("V" + "H0" * 2200)
@given(st.text(st.sampled_from("HV01HV01HV01 2_x\n\u00e9-+")))
def test_encode_bits_matches_a_per_character_reference(bits):
    assert _encode_outcome(encode_bits, bits) == _encode_outcome(_reference_encode_bits, bits)


@pytest.mark.parametrize("bits", ["VH", "VHHH", "VXH", "12H"])
def test_basis_state_rejects_bad_input(bits):
    with pytest.raises(ValueError):
        basis_state(3, bits)


def test_sparse_state_rejects_out_of_range_keys():
    from wstates import QuantumState

    with pytest.raises(ValueError):
        QuantumState(2, {4: 1.0})
    with pytest.raises(ValueError):
        QuantumState(2, {-1: 1.0})


@pytest.mark.parametrize("key", [1.5, "1"])
def test_sparse_state_rejects_keys_that_are_not_integers(key):
    from wstates import QuantumState

    with pytest.raises(ValueError, match=rf"basis index {key!r} is not an integer"):
        QuantumState(2, {key: 1.0})


def test_sparse_state_accepts_numpy_integer_keys():
    from wstates import QuantumState

    state = QuantumState(2, {np.int64(1): 1.0})
    assert state.amplitudes == {1: 1.0}
    assert type(next(iter(state.amplitudes))) is int


@pytest.mark.parametrize("backend", BACKENDS)
def test_complex_amplitudes_are_rejected(backend):
    from wstates import QuantumState

    if backend == "sparse":
        cases = [{0: 1 + 0.5j}, {0: "1"}, {0: None}]
    else:
        cases = [np.array([1 + 0.5j, 0, 0, 0]), ["1", "0", "0", "0"], [None, 1, 0, 0]]
    for amplitudes in cases:
        with pytest.raises(ValueError, match="^amplitudes must be real$"):
            QuantumState(2, amplitudes)


def test_w_reference_amplitudes():
    ref3 = w_reference(3)
    assert set(ref3.amplitudes) == {4, 2, 1}
    assert all(abs(v - 1 / math.sqrt(3)) < 1e-15 for v in ref3.amplitudes.values())
    assert set(w_reference(4).amplitudes) == {8, 4, 2, 1}
    assert set(w_reference(2).amplitudes) == {2, 1}
    with pytest.raises(ValueError):
        w_reference(1)


@pytest.mark.parametrize("backend", BACKENDS)
def test_apply_coupler_splits_amplitude(backend):
    state = basis_state(3, "VHH", backend=backend)
    out = run(Circuit(state.n, (F(1, 2, math.acos(1 / math.sqrt(3))),)), state)
    assert abs(out.amplitude(4) - 1 / math.sqrt(3)) < 1e-15      # |VHH>
    assert abs(out.amplitude(6) - math.sqrt(2 / 3)) < 1e-15      # |VVH>
    assert out.support_size() == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_apply_cnot_moves_the_v(backend):
    state = basis_state(3, "VVH", backend=backend)
    out = run(Circuit(state.n, (CNOT(2, 1),)), state)
    assert out.amplitude(2) == 1.0                               # |HVH>
    assert out.support_size() == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_cz_fixes_states_without_double_v(backend):
    state = basis_state(3, "VHH", backend=backend)
    out = run(Circuit(state.n, (CZ(1, 2),)), state)
    assert out.amplitude(4) == 1.0
    flipped = run(Circuit(3, (CZ(1, 2),)), basis_state(3, "VVH", backend=backend))
    assert flipped.amplitude(6) == -1.0


def test_stepping_rejects_out_of_range_wires():
    with pytest.raises(ValueError, match=r"^gate .+ exceeds 2 qubits$"):
        run(Circuit(2, (CNOT(1, 3),)), basis_state(2, "HH"))


@pytest.mark.parametrize("n", [3, 4, 5])
@pytest.mark.parametrize("backend", BACKENDS)
def test_golden_w_states(n, backend):
    out = run(build_w_circuit(n), _input(n, backend), backend=backend)
    amp = 1 / math.sqrt(n)
    items = dict(out.items())
    assert set(items) == {1 << k for k in range(n)}
    assert all(abs(v - amp) < 1e-12 for v in items.values())
    assert fidelity(out, w_reference(n)) > 1 - 1e-12


def test_empty_circuit_is_identity():
    state = basis_state(2, "HV", backend="dense")
    out = run(Circuit(2, ()), state)
    assert out.amplitude(1) == 1.0


def test_run_rejects_size_mismatch():
    with pytest.raises(ValueError):
        run(build_w_circuit(3), basis_state(4, "VHHH"))


def test_fidelity_basics():
    a = basis_state(3, "VHH", backend="dense")
    b = basis_state(3, "HVH", backend="sparse")
    assert fidelity(a, a) == 1.0
    assert fidelity(a, b) == 0.0
    assert fidelity(b, a) == fidelity(a, b)
    with pytest.raises(ValueError):
        fidelity(a, basis_state(4, "VHHH"))


def test_fidelity_of_unequal_sparse_supports_is_symmetric():
    a = basis_state(3, "VHH", "sparse")
    b = QuantumState(3, {4: 0.6, 2: 0.8})
    assert fidelity(a, b) == fidelity(b, a) == 0.6 * 0.6


def test_fidelity_across_backends():
    out_d = run(build_w_circuit(4), _input(4, "dense"), backend="dense")
    out_s = run(build_w_circuit(4), _input(4, "sparse"), backend="sparse")
    assert abs(fidelity(out_d, out_s) - 1) < 1e-12
    assert abs(fidelity(out_d, w_reference(4)) - 1) < 1e-12


@pytest.mark.parametrize("n", range(3, 9))
def test_backends_agree_per_amplitude(n):
    circuit = build_w_circuit(n)
    dense = run(circuit, _input(n, "dense"), backend="dense")
    sparse = run(circuit, _input(n, "sparse"), backend="sparse")
    diff = np.abs(dense.amplitudes - sparse.to_dense().amplitudes)
    assert float(diff.max()) < 1e-12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_simulator_matches_unitary_oracle(n):
    circuit = build_w_circuit(n)
    u = unitary_of(circuit)
    rng = np.random.default_rng(n)
    for b in rng.integers(0, 1 << n, size=5):
        bits = format(int(b), f"0{n}b")
        for backend in BACKENDS:
            out = run(circuit, basis_state(n, bits, backend=backend), backend=backend)
            column = u[:, int(b)]
            got = out.to_dense().amplitudes
            assert float(np.abs(got - column).max()) < 1e-12


def test_lowered_circuits_simulate_identically():
    from wstates import lower

    circuit = build_w_circuit(6)
    reference = run(circuit, _input(6, "dense"))
    for target in (Level.CZ_LEVEL, Level.ELEMENTARY):
        out = run(lower(circuit, target), _input(6, "dense"))
        assert float(np.abs(out.amplitudes - reference.amplitudes).max()) < 1e-12


@pytest.mark.parametrize("n", [3, 8, 16, 33])
def test_sparse_support_never_exceeds_n(n):
    state = _input(n, "sparse")
    for g in build_w_circuit(n).gates:
        state = run(Circuit(state.n, (g,)), state)
        assert state.support_size() <= n
    assert state.support_size() == n


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_gate_application_preserves_norm(backend):
    state = _input(6, backend)
    for g in build_w_circuit(6).gates:
        state = run(Circuit(state.n, (g,)), state)
        assert abs(state.norm_squared() - 1.0) < 1e-13


@pytest.mark.parametrize("n", [3, 10, 40, 64])
def test_norm_holds_after_every_gate(n):
    # check_norm raises if any intermediate norm leaves [1-1e-10, 1+1e-10]
    out = run(build_w_circuit(n), _input(n, "sparse"), backend="sparse", check_norm=True)
    assert abs(out.norm_squared() - 1) < 1e-12
    dense_n = min(n, 16)
    out = run(build_w_circuit(dense_n), _input(dense_n, "dense"), backend="dense", check_norm=True)
    assert abs(out.norm_squared() - 1) < 1e-12


def test_storage_is_real_by_construction():
    dense = run(build_w_circuit(4), _input(4, "dense"))
    assert dense.amplitudes.dtype == np.float64
    sparse = run(build_w_circuit(4), _input(4, "sparse"), backend="sparse")
    assert all(isinstance(v, float) for v in sparse.amplitudes.values())


def test_runs_are_deterministic():
    a = run(build_w_circuit(9), _input(9, "sparse"), backend="sparse")
    b = run(build_w_circuit(9), _input(9, "sparse"), backend="sparse")
    assert a.amplitudes == b.amplitudes


def test_dense_capacity_enforced():
    with pytest.raises(CapacityError):
        run(build_w_circuit(26), _input(26, "sparse"), backend="dense")
    with pytest.raises(CapacityError, match=r"sparse backend capped at 10000 qubits"):
        run(Circuit(10001, ()), _input(10001, "sparse"), backend="sparse")
    # the guard fires before any 2**n allocation is attempted, with the one
    # message resolve_backend gives
    message = r"^dense backend capped at 24 qubits \(got 40\)$"
    with pytest.raises(CapacityError, match=message):
        basis_state(40, "H" * 40, backend="dense")
    with pytest.raises(CapacityError, match=message):
        _input(40, "sparse").to_dense()


def test_dense_run_peak_is_the_state_and_its_scratch():
    import tracemalloc

    # The engine's copy of the state and its four buffers of _CHUNK
    # amplitudes, plus 0.5 MiB for the op plan and the views; the result
    # adopts the engine's copy.
    n = 20
    circuit = build_w_circuit(n)
    state = _input(n, "dense")
    bound = 8 * 2**n + 4 * 8 * _CHUNK + 2**19
    tracemalloc.start()
    try:
        run(circuit, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, f"{peak / 2**20:.2f} MiB > {bound / 2**20:.2f} MiB"


def _recording_engines(monkeypatch):
    """The dense engines that runs make from now on, in order."""
    engines = []

    class Engine(simulator._DenseEngine):
        def __init__(self, *args):
            super().__init__(*args)
            engines.append(self)

    monkeypatch.setattr(simulator, "_DenseEngine", Engine)
    return engines


def test_dense_gates_leave_pairs_of_dead_rows_at_positive_zero(monkeypatch):
    # At n=16 the 4 rows are numbered by qubits 1 and 2, and |H...H> lives in
    # row 0.  The CZ pairs rows 2 and 3, both dead, and the mix with a
    # negative sine pairs each row with itself: neither writes -0.0 into a
    # dead row, and the dead rows stay dead.
    n = 16
    engines = _recording_engines(monkeypatch)
    out = run(Circuit(n, (CZ(1, 2), ROT(n, -2.5))), basis_state(n, "H" * n, backend="dense"))
    rows = out.amplitudes.reshape(4, _CHUNK)
    assert not np.signbit(rows[1:]).any()
    assert not rows[1:].any() and rows[0].any()
    assert engines[-1].flags.tolist() == [True, False, False, False]


def test_dense_run_copies_only_the_amplitudes_of_live_rows(monkeypatch):
    # A gate copies the first half of each pair of rows it works into the
    # first buffer once; the W network at n=20 copies 10,485,760 amplitudes
    # that way with every row live.  From |VH...H> the state holds at most 20
    # nonzeros, in at most 7 of its 64 rows, and the pairs of dead rows are
    # skipped, by the CZs of the CZ-level network too.
    n = 20
    engines, copied = _recording_engines(monkeypatch), []
    copyto = np.copyto

    def counting(dst, src, **kwargs):
        if np.may_share_memory(dst, engines[-1].buffers[0]):
            copied.append(dst.nbytes // 8)
        copyto(dst, src, **kwargs)

    monkeypatch.setattr(np, "copyto", counting)
    full = QuantumState(n, np.full(1 << n, 2.0 ** (-n / 2)))
    network, cz_level = build_w_circuit(n), lower(build_w_circuit(n), Level.CZ_LEVEL)
    for circuit, state, amplitudes in ((network, _input(n, "dense"), 1_392_640),
                                       (network, full, 10_485_760),
                                       (cz_level, _input(n, "dense"), 15_695_872)):
        copied.clear()
        run(circuit, state)
        assert sum(copied) == amplitudes


def test_sparse_support_budget(monkeypatch):
    import wstates.simulator

    circuit = build_w_circuit(12)
    assert run(circuit, basis_state(12, "VHVHVHVHVHVH", backend="sparse")).support_size() == 169
    monkeypatch.setattr(wstates.simulator, "SPARSE_ENGINE_BYTES", 64 * (12 + 8))
    with pytest.raises(CapacityError, match=r"^sparse support of \d+ entries at 12 qubits"):
        run(circuit, basis_state(12, "VHVHVHVHVHVH", backend="sparse"))


@pytest.mark.parametrize("n", [60, 300])
def test_sparse_peak_stays_within_the_engine_budget(monkeypatch, n):
    # Twenty V's grow the support until the row limit stops the run.  The
    # engine's arrays and the temporaries of its widest mix must fit the
    # budget; 256 KiB of slack covers the op plan and the exception.  At one
    # key word (n = 60) the 8-byte row numbers weigh most against the charge.
    budget = 1 << 22
    circuit = lower(build_w_circuit(n), Level.ELEMENTARY)
    state = basis_state(n, "V" * 20 + "H" * (n - 20), backend="sparse")
    monkeypatch.setattr(simulator, "SPARSE_ENGINE_BYTES", budget)
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError, match="engine budget"):
            run(circuit, state)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= budget + 2**18, f"{peak / 2**20:.2f} MiB"


@pytest.mark.parametrize("level", [Level.CZ_LEVEL, Level.ELEMENTARY], ids=lambda level: level.name)
def test_a_lowered_coupler_sorts_at_most_once(monkeypatch, level):
    # Every plate of a lowered F(j, j+1) mixes all rows on j+1.  The first
    # pairs each row with the one it appends; the rest reuse that pairing.
    n = 300
    network = build_w_circuit(n)
    circuit = lower(network, level)
    sorts = []
    lexsort = np.lexsort
    monkeypatch.setattr(np, "lexsort", lambda keys: sorts.append(len(keys)) or lexsort(keys))
    out = run(circuit, _input(n, "sparse"))
    monkeypatch.undo()
    assert len(sorts) <= network.gate_counts()["F"]
    if level == Level.ELEMENTARY:
        # The dump CI's packaging step pins for the same run.
        assert hashlib.sha256(dump_state(out).encode()).hexdigest() == (
            "2a862b91baac8ffc58ef0771ed40db10984e303932c1745ce42be45de853323c"
        )


def test_sparse_budget_holds_the_w_network_at_the_qubit_cap():
    from wstates.simulator import SPARSE_ENGINE_BYTES, SPARSE_QUBIT_CAP

    # The network keeps at most n entries, and capacity doubles from 16 rows,
    # so n = SPARSE_QUBIT_CAP takes at most 16384 rows.  A row is charged
    # 4 * (8 * ceil(n / 64) + 8) bytes, no more than n + 8 at this n.
    assert 16384 * (SPARSE_QUBIT_CAP + 8) <= SPARSE_ENGINE_BYTES


def test_auto_backend_threshold():
    assert resolve_backend(20, "auto") == "dense"
    assert resolve_backend(21, "auto") == "sparse"
    out = run(build_w_circuit(21), _input(21, "sparse"), backend="auto")
    assert out.backend == "sparse"


def test_dump_format_and_sorting():
    out = run(build_w_circuit(3), _input(3, "sparse"), backend="sparse")
    lines = dump_state(out).splitlines()
    assert len(lines) == 3
    mags = []
    for line in lines:
        bits, amp = line.split()
        assert len(bits) == 3 and set(bits) <= {"0", "1"}
        assert abs(float(amp) - 1 / math.sqrt(3)) < 1e-12
        mags.append(abs(float(amp)))
    assert mags == sorted(mags, reverse=True)


def test_dump_of_basis_state():
    assert dump_state(basis_state(2, "HH", backend="dense")) == "00 1\n"


def test_dump_breaks_amplitude_ties_by_bitstring():
    # Two quarter-pi mixes leave |01> and |10> with the exact same float
    # magnitude (c*s both ways), so their order falls back to the bitstring.
    state = run(
        Circuit(2, (ROT(1, math.pi / 4), ROT(2, math.pi / 4))),
        basis_state(2, "HH", backend="dense"),
    )
    lines = dump_state(state).splitlines()
    assert abs(state.amplitude(1)) == abs(state.amplitude(2))
    assert [ln.split()[0] for ln in lines] == ["00", "01", "10", "11"]


def _reference_dump_state(state):
    """The one-list dump that dump_state had for both storages: every entry
    as a (bits, value) tuple, sorted with a Python key."""
    entries = [(format(k, f"0{state.n}b"), v) for k, v in state.items()]
    entries.sort(key=lambda e: (-abs(e[1]), e[0]))
    return "".join(f"{b} {v:.17g}\n" for b, v in entries)


@st.composite
def _tied_states(draw):
    """A normalized dense state whose entries take a few magnitudes, each
    with either sign, so ties in |v| and +-v pairs are common."""
    n = draw(st.integers(1, 8))
    pool = draw(st.lists(st.floats(1e-150, 1.0), min_size=1, max_size=3))
    value = st.sampled_from(pool).flatmap(lambda m: st.sampled_from((m, -m)))
    raw = draw(st.lists(st.one_of(st.just(0.0), value), min_size=1 << n, max_size=1 << n))
    if not any(raw):
        raw[draw(st.integers(0, (1 << n) - 1))] = pool[0]
    norm = math.sqrt(math.fsum(v * v for v in raw))
    return QuantumState(n, np.array(raw) / norm)


def _sparse_state(n, entries):
    """The sparse n-qubit state with these {index: weight} entries, normalized."""
    norm = math.sqrt(math.fsum(v * v for v in entries.values()))
    return QuantumState(n, {k: v / norm for k, v in entries.items()})


@given(_tied_states())
@example(QuantumState(2, np.array([0.5, -0.5, 0.5, -0.5])))
@example(QuantumState(3, np.array([0.0, -0.6, 0.0, 0.0, 0.0, 0.8, 0.0, 0.0])))
@example(QuantumState(1, np.array([0.0, -1.0])))
# Keys of two and of five 64-bit words, with ties in |v| across words and signs.
@example(_sparse_state(65, {1 << 64: 3.0, 1: -3.0, (1 << 64) | 1: 3.0, 2: 1.0,
                            (1 << 63) | 2: -1.0, (1 << 65) - 1: -2.0}))
@example(_sparse_state(300, {1 << 299: -2.0, 1 << 150: 2.0, (1 << 300) - 1: 2.0, 7: -2.0,
                             1 << 64: 1.0, (1 << 64) - 1: -1.0, 5 << 200: 0.5}))
def test_dump_matches_the_one_list_dump(state):
    text = dump_state(state)
    assert text == _reference_dump_state(state)
    sparse = state.to_sparse()
    assert dump_state(sparse) == _reference_dump_state(sparse) == text


def test_dense_dump_peak_stays_near_its_text():
    # Python numbers for a block of entries at a time, not for the whole
    # sorted order: about 2.4-2.6x the text, and 3.4-3.6x with the whole order.
    n = 16
    amps = np.random.default_rng(16).standard_normal(1 << n)
    state = QuantumState(n, amps / np.linalg.norm(amps))
    text = dump_state(state)
    assert text.count("\n") == 1 << n
    assert _peak_bytes(lambda: dump_state(state)) <= 3 * len(text)


def test_dense_dump_spans_several_blocks(monkeypatch):
    # dump_state converts a block of entries at a time, and base._blocks
    # joins a block of lines at a time.
    monkeypatch.setattr(simulator, "_WRITE_BLOCK", 7)
    monkeypatch.setattr(base, "_WRITE_BLOCK", 7)
    rng = np.random.default_rng(5)
    amps = rng.choice([-3.0, -1.0, 0.0, 1.0, 3.0], size=1 << 6)
    amps[0] = 1.0
    state = QuantumState(6, amps / np.linalg.norm(amps))
    assert dump_state(state) == _reference_dump_state(state)


def test_norm_holds_after_every_gate_at_n2000():
    out = run(
        build_w_circuit(2000),
        _input(2000, "sparse"),
        backend="sparse",
        check_norm=True,
    )
    assert abs(out.norm_squared() - 1) < 1e-10


_small_circuits = st.integers(2, 4).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.lists(
            st.one_of(
                st.builds(
                    ROT, st.integers(1, n), st.floats(-math.pi, math.pi)
                ),
                st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                    lambda ct: ct[0] != ct[1]
                ).map(lambda ct: CNOT(*ct)),
                st.tuples(st.integers(1, n), st.integers(1, n)).filter(
                    lambda ct: ct[0] != ct[1]
                ).map(lambda ct: CZ(*ct)),
            ),
            max_size=10,
        ),
    )
)


@settings(max_examples=60, deadline=None)
@given(_small_circuits)
def test_backend_equivalence_on_random_circuits(drawn):
    n, gates = drawn
    circuit = Circuit(n, tuple(gates))
    dense = run(circuit, basis_state(n, "H" * n, backend="dense"), backend="dense")
    sparse = run(circuit, basis_state(n, "H" * n, backend="sparse"), backend="sparse")
    diff = np.abs(dense.amplitudes - sparse.to_dense().amplitudes)
    assert float(diff.max()) < 1e-12
    assert abs(sparse.norm_squared() - 1) < 1e-10


# 5e-10 over 1: inside the constructor's 1e-9 guard, outside the run's 1e-10
# per-op check, so the first op of any checked run reports the drift.
def _drifted(n, index):
    from wstates import QuantumState

    return QuantumState(n, {index: math.sqrt(1 + 5e-10)})


@pytest.mark.parametrize("backend", BACKENDS)
def test_check_norm_reports_drift(backend):
    circuit = Circuit(2, (ROT(1, 0.3), ROT(2, 0.4)))
    with pytest.raises(
        RuntimeError,
        match=r"^norm drifted to 1\.0000000005 after Gate\(kind='ROT', target=1, ",
    ):
        run(circuit, _drifted(2, 0), backend=backend, check_norm=True)
    # unchecked, the same run goes through
    assert run(circuit, _drifted(2, 0), backend=backend).n == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_check_norm_names_a_planned_rung(backend):
    # The run CNOT(2,1) CNOT(3,1) extends the chain started by CNOT(3,2), so
    # both engines apply the rung CNOT(2,1) first and check the norm after
    # it: the report names that gate, which is a gate of the circuit.
    circuit = Circuit(3, (CNOT(3, 2), CNOT(2, 1), CNOT(3, 1)))
    with pytest.raises(
        RuntimeError, match=r"after Gate\(kind='CNOT', target=1, control=2, angle=None\)$"
    ):
        run(circuit, _drifted(3, 4), backend=backend, check_norm=True)


def test_sparse_run_of_a_dense_input_matches_the_sparse_run():
    circuit = build_w_circuit(5)
    via_dense = run(circuit, basis_state(5, "VHHHH", backend="dense"), backend="sparse")
    sparse = run(circuit, basis_state(5, "VHHHH", backend="sparse"), backend="sparse")
    assert via_dense.backend == "sparse"
    assert list(via_dense.amplitudes.items()) == list(sparse.amplitudes.items())


@pytest.mark.parametrize("backend", ["bogus", ""])
def test_run_rejects_unknown_backend(backend):
    with pytest.raises(ValueError, match=rf"^unknown backend {backend!r}$"):
        run(build_w_circuit(5), basis_state(5, "VHHHH"), backend=backend)


def test_quantum_state_rejects_wrong_dense_length():
    with pytest.raises(ValueError, match=r"^dense amplitude array has wrong length$"):
        QuantumState(2, [1.0, 0.0, 0.0])


def _peak_bytes(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_quantum_state_bounds_its_size_without_building_two_to_the_n():
    # 1 << 2**40 alone would take 128 GiB.
    n = 2**40
    assert _peak_bytes(lambda: QuantumState(n, {0: 1.0})) < 2**20
    assert QuantumState(n, {1 << 100: 1.0}).support_size() == 1
    with pytest.raises(ValueError, match=rf"^basis index {1 << 64} does not fit 64 qubits$"):
        QuantumState(64, {1 << 64: 1.0})

    def wrong_length():
        with pytest.raises(ValueError, match=r"^dense amplitude array has wrong length$"):
            QuantumState(n, np.zeros(4))

    assert _peak_bytes(wrong_length) < 2**20


def test_quantum_state_copies_a_callers_dense_array():
    a = np.zeros(8)
    a[4] = 1.0
    state = QuantumState(3, a)
    assert a.flags.writeable
    a[0] = 0.5
    b = np.zeros(8)
    b[4] = 1.0
    from_view = QuantumState(3, b[:])
    b[4], b[0] = 0.0, 5.0
    for s in (state, from_view):
        assert s.norm_squared() == 1.0 and s.amplitude(0) == 0.0 and s.amplitude(4) == 1.0
        assert not s.amplitudes.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            s.amplitudes[0] = 1.0


def test_dense_basis_state_holds_one_array():
    # to_dense hands its array to the state: a copy would peak at 16 MiB.
    peak = _peak_bytes(lambda: basis_state(20, "V" + "H" * 19, backend="dense"))
    assert peak <= 8 * 2**20 + 2**16, f"{peak / 2**20:.3f} MiB"


@pytest.mark.parametrize("amplitudes", [{}, {0: 1.0}, [1.0]], ids=["empty", "sparse", "dense"])
def test_quantum_state_refuses_a_negative_qubit_count(amplitudes):
    with pytest.raises(ValueError, match=r"^qubit count -1 is negative$"):
        QuantumState(-1, amplitudes)


def test_quantum_state_backend_follows_its_storage():
    for amplitudes in ({2: 1.0}, MappingProxyType({2: 1.0})):
        state = QuantumState(2, amplitudes)
        assert state.backend == "sparse" and type(state.amplitudes) is dict
    for amplitudes in (np.array([0.0, 0.0, 1.0, 0.0]), [0.0, 0.0, 1.0, 0.0], (0, 0, 1, 0)):
        state = QuantumState(2, amplitudes)
        assert state.backend == "dense" and isinstance(state.amplitudes, np.ndarray)
        assert state.to_sparse().amplitudes == {2: 1.0}
    # An array is dense, whatever a caller meant it to be.
    assert QuantumState(2, np.array([1.0, 0, 0, 0])).backend == "dense"


def test_auto_basis_state_applies_the_sparse_run_cap():
    message = r"^sparse backend capped at 10000 qubits \(got 10001\)$"
    with pytest.raises(CapacityError, match=message):
        basis_state(10001, "V" + "H" * 10000)


def test_sparse_basis_state_has_no_run_cap():
    # A storage constructor: only run() applies the backend caps.
    state = basis_state(10001, "V" + "H" * 10000, backend="sparse")
    assert state.support_size() == 1 and state.amplitude(1 << 10000) == 1.0


@pytest.mark.parametrize("backend", ["dnese", "Sparse", ""])
def test_basis_state_rejects_unknown_backend(backend):
    with pytest.raises(ValueError, match=rf"unknown backend {backend!r}"):
        basis_state(3, "VHH", backend=backend)


@pytest.mark.parametrize("backend", BACKENDS)
def test_nan_amplitudes_fail_the_norm_check(backend):
    amplitudes = {1: math.nan} if backend == "sparse" else [0.0, math.nan, 0.0, 0.0]
    with pytest.raises(ValueError, match="not normalized"):
        QuantumState(2, amplitudes)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 63, 64, 65, 128, 129, 300])
def test_sparse_engine_round_trips_keys_in_order(n):
    # Keys go in and out of the engine's 64-bit key words in bulk; neither
    # the bits of a key nor the order of the entries may change.
    from wstates.simulator import _SparseEngine

    rng = np.random.default_rng(n)
    width = (n + 7) // 8
    drawn = [int.from_bytes(rng.bytes(width), "big") >> (8 * width - n) for _ in range(40)]
    keys = dict.fromkeys([(1 << n) - 1, *drawn, 0])
    items = {k: float(i + 1) for i, k in enumerate(keys)}
    assert list(_SparseEngine(n, items).amplitudes().items()) == list(items.items())
