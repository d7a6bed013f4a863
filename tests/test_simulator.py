"""Dense and sparse backends: golden states, cross-checks, invariants."""
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wstates import (
    CNOT,
    CZ,
    CapacityError,
    Circuit,
    F,
    Level,
    ROT,
    apply_gate,
    basis_state,
    build_w_circuit,
    dump_state,
    encode_bits,
    fidelity,
    pick_backend,
    run,
    unitary_of,
    w_reference,
)

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


def test_encode_bits_accepts_both_alphabets():
    assert encode_bits("VHH") == encode_bits("100") == 4


@pytest.mark.parametrize("bits", ["VH", "VHHH", "VXH", "12H"])
def test_basis_state_rejects_bad_input(bits):
    with pytest.raises(ValueError):
        basis_state(3, bits)


def test_sparse_state_rejects_out_of_range_keys():
    from wstates import QuantumState

    with pytest.raises(ValueError):
        QuantumState(2, {4: 1.0}, "sparse")
    with pytest.raises(ValueError):
        QuantumState(2, {-1: 1.0}, "sparse")


@pytest.mark.parametrize("key", [1.5, "1"])
def test_sparse_state_rejects_keys_that_are_not_integers(key):
    from wstates import QuantumState

    with pytest.raises(ValueError, match=rf"basis index {key!r} is not an integer"):
        QuantumState(2, {key: 1.0}, "sparse")


def test_sparse_state_accepts_numpy_integer_keys():
    from wstates import QuantumState

    state = QuantumState(2, {np.int64(1): 1.0}, "sparse")
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
            QuantumState(2, amplitudes, backend)


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
    out = apply_gate(state, F(1, 2, math.acos(1 / math.sqrt(3))))
    assert abs(out.amplitude(4) - 1 / math.sqrt(3)) < 1e-15      # |VHH>
    assert abs(out.amplitude(6) - math.sqrt(2 / 3)) < 1e-15      # |VVH>
    assert out.support_size() == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_apply_cnot_moves_the_v(backend):
    state = basis_state(3, "VVH", backend=backend)
    out = apply_gate(state, CNOT(2, 1))
    assert out.amplitude(2) == 1.0                               # |HVH>
    assert out.support_size() == 1


@pytest.mark.parametrize("backend", BACKENDS)
def test_cz_fixes_states_without_double_v(backend):
    state = basis_state(3, "VHH", backend=backend)
    out = apply_gate(state, CZ(1, 2))
    assert out.amplitude(4) == 1.0
    flipped = apply_gate(basis_state(3, "VVH", backend=backend), CZ(1, 2))
    assert flipped.amplitude(6) == -1.0


def test_apply_gate_rejects_out_of_range_wires():
    with pytest.raises(ValueError):
        apply_gate(basis_state(2, "HH"), CNOT(1, 3))


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
    out = run(Circuit(2, (), Level.ELEMENTARY), state)
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
        state = apply_gate(state, g)
        assert state.support_size() <= n
    assert state.support_size() == n


@pytest.mark.parametrize("backend", BACKENDS)
def test_single_gate_application_preserves_norm(backend):
    state = _input(6, backend)
    for g in build_w_circuit(6).gates:
        state = apply_gate(state, g)
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
        run(Circuit(10001, (), Level.COMPOSITE), _input(10001, "sparse"), backend="sparse")
    # the guard fires before any 2**n allocation is attempted, with the one
    # message resolve_backend gives
    message = r"^dense backend capped at 24 qubits \(got 40\)$"
    with pytest.raises(CapacityError, match=message):
        basis_state(40, "H" * 40, backend="dense")
    with pytest.raises(CapacityError, match=message):
        _input(40, "sparse").to_dense()


def test_sparse_support_budget(monkeypatch):
    import wstates.simulator

    circuit = build_w_circuit(12)
    assert run(circuit, basis_state(12, "VHVHVHVHVHVH", backend="sparse")).support_size() == 169
    monkeypatch.setattr(wstates.simulator, "SPARSE_ENGINE_BYTES", 64 * (12 + 8))
    with pytest.raises(CapacityError, match=r"^sparse support of \d+ entries at 12 qubits"):
        run(circuit, basis_state(12, "VHVHVHVHVHVH", backend="sparse"))


def test_sparse_budget_holds_the_w_network_at_the_qubit_cap():
    from wstates.simulator import SPARSE_ENGINE_BYTES, SPARSE_QUBIT_CAP

    # The network keeps at most n entries, and capacity doubles from 16 rows,
    # so n = SPARSE_QUBIT_CAP takes at most 16384 rows of n + 8 bytes.
    assert 16384 * (SPARSE_QUBIT_CAP + 8) <= SPARSE_ENGINE_BYTES


def test_auto_backend_threshold():
    assert pick_backend(20) == "dense"
    assert pick_backend(21) == "sparse"
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
        Circuit(2, (ROT(1, math.pi / 4), ROT(2, math.pi / 4)), Level.ELEMENTARY),
        basis_state(2, "HH", backend="dense"),
    )
    lines = dump_state(state).splitlines()
    assert abs(state.amplitude(1)) == abs(state.amplitude(2))
    assert [ln.split()[0] for ln in lines] == ["00", "01", "10", "11"]


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
    circuit = Circuit(n, tuple(gates), Level.CZ_LEVEL)
    dense = run(circuit, basis_state(n, "H" * n, backend="dense"), backend="dense")
    sparse = run(circuit, basis_state(n, "H" * n, backend="sparse"), backend="sparse")
    diff = np.abs(dense.amplitudes - sparse.to_dense().amplitudes)
    assert float(diff.max()) < 1e-12
    assert abs(sparse.norm_squared() - 1) < 1e-10


# 5e-10 over 1: inside the constructor's 1e-9 guard, outside the run's 1e-10
# per-op check, so the first op of any checked run reports the drift.
def _drifted(n, index):
    from wstates import QuantumState

    return QuantumState(n, {index: math.sqrt(1 + 5e-10)}, "sparse")


@pytest.mark.parametrize("backend", BACKENDS)
def test_check_norm_reports_drift(backend):
    circuit = Circuit(2, (ROT(1, 0.3), ROT(2, 0.4)), Level.ELEMENTARY)
    with pytest.raises(
        RuntimeError,
        match=r"^norm drifted to 1\.0000000005 after Gate\(kind='ROT', target=1, ",
    ):
        run(circuit, _drifted(2, 0), backend=backend, check_norm=True)
    # unchecked, the same run goes through
    assert run(circuit, _drifted(2, 0), backend=backend).n == 2


@pytest.mark.parametrize("backend", BACKENDS)
def test_check_norm_names_the_last_gate_of_an_op(backend):
    # Both engines run CNOT(2,1), CNOT(3,1) as one fused op and check the
    # norm after it, so the report names its last gate.
    circuit = Circuit(3, (CNOT(2, 1), CNOT(3, 1), ROT(1, 0.2)), Level.ELEMENTARY)
    with pytest.raises(
        RuntimeError, match=r"after Gate\(kind='CNOT', target=1, control=3,"
    ):
        run(circuit, _drifted(3, 4), backend=backend, check_norm=True)


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
    from wstates import QuantumState

    amplitudes = {1: math.nan} if backend == "sparse" else [0.0, math.nan, 0.0, 0.0]
    with pytest.raises(ValueError, match="not normalized"):
        QuantumState(2, amplitudes, backend)


@pytest.mark.parametrize("n", [1, 7, 8, 9, 17, 300])
def test_sparse_engine_round_trips_keys_in_order(n):
    # Keys go in and out of the engine's bit matrix in bulk; neither the
    # bits of a key nor the order of the entries may change.
    from wstates.simulator import _SparseEngine

    rng = np.random.default_rng(n)
    width = (n + 7) // 8
    drawn = [int.from_bytes(rng.bytes(width), "big") >> (8 * width - n) for _ in range(40)]
    keys = dict.fromkeys([(1 << n) - 1, *drawn, 0])
    items = {k: float(i + 1) for i, k in enumerate(keys)}
    assert list(_SparseEngine(n, items).amplitudes().items()) == list(items.items())
