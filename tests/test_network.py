"""The W network as an op stream: the same ops, gates and outputs as the
circuit build_w_circuit builds from it."""
import math
import struct

import numpy as np
import pytest

from wstates import (
    Circuit,
    GateColumns,
    Level,
    WNetwork,
    basis_state,
    build_w_circuit,
    lower,
    run,
)
from wstates.gates import CNOT_CODE, F_CODE
from wstates.simulator import _plan

DELTAS = (0.0, 0.1, 0.5, 1.337, 2.0)  # plate-angle offsets, degrees


def _bits(x: float) -> bytes:
    return struct.pack("<d", x)


def _assert_same_ops(got, want):
    got, want = list(got), list(want)
    assert len(got) == len(want)
    for (kg, cg, tg, ag), (kw, cw, tw, aw) in zip(got, want):
        assert (kg, tg, _bits(ag)) == (kw, tw, _bits(aw))
        assert type(tg) is int and type(ag) is float
        if kg == CNOT_CODE:
            assert isinstance(cg, np.ndarray) and cg.dtype == cw.dtype == np.int32
            assert np.array_equal(cg, cw)
        else:
            assert type(cg) is int and cg == cw


def _shifted_circuit(n: int, position: int, delta: float) -> Circuit:
    """The built circuit with delta degrees added to one coupler's plate
    angle, through its angle column: the reference for a shifted network."""
    cols = build_w_circuit(n).gates
    angle = cols.angle.copy()
    angle[(cols.kind == F_CODE) & (cols.control == position)] += 4.0 * math.radians(delta)
    return Circuit(n, GateColumns(cols.kind, cols.control, cols.target, angle))


def _assert_same_state(a, b):
    assert a.backend == b.backend
    if a.backend == "dense":
        assert a.amplitudes.tobytes() == b.amplitudes.tobytes()
    else:
        # Bit-equal amplitudes in the same dict order.
        assert list(a.amplitudes) == list(b.amplitudes)
        assert np.array(list(a.amplitudes.values())).tobytes() == \
            np.array(list(b.amplitudes.values())).tobytes()


@pytest.mark.parametrize("sizes", [range(3, 201), [800], [2000]], ids=["3-200", "800", "2000"])
def test_network_ops_are_the_fusion_plan_of_the_built_circuit(sizes):
    for n in sizes:
        _assert_same_ops(WNetwork(n).ops(), build_w_circuit(n).ops())


def _planned(circuit):
    """The circuit's plan, checked to be single gates of the circuit."""
    planned = list(_plan(circuit.ops()))
    assert all(type(c) is int for _, c, _, _ in planned)
    gates = set(zip(circuit.gates.kind.tolist(), circuit.gates.control.tolist(),
                    circuit.gates.target.tolist()))
    assert {(k, c, t) for k, c, t, _ in planned} <= gates
    return planned


def test_plan_of_the_network_is_2n_single_gates():
    # The fan-in layers form one chain: a 3-control head and n - 4 rungs.
    for n in range(3, 201):
        planned = _planned(build_w_circuit(n))
        # n = 3 has no fan-in layer, and its 4 gates are the whole network.
        assert len(planned) == (2 * n if n > 3 else 4)
        assert list(_plan(WNetwork(n).ops())) == planned


@pytest.mark.parametrize("level", [Level.CZ_LEVEL, Level.ELEMENTARY], ids=lambda lv: lv.name)
@pytest.mark.parametrize("n", [3, 4, 5, 65, 130])
def test_plan_of_the_lowered_network_is_single_gates(n, level):
    circuit = lower(build_w_circuit(n), level)
    planned = _planned(circuit)
    # Lowering leaves the CNOT layers alone, so the chain saves as much.
    composite = build_w_circuit(n)
    saved = len(composite.gates) - len(_planned(composite))
    assert len(planned) == len(circuit.gates) - saved


@pytest.mark.parametrize("n", [3, 4, 11, 60])
def test_network_answers_as_the_built_circuit(n):
    built = build_w_circuit(n)
    network = WNetwork(n)
    assert network.level == built.level == Level.COMPOSITE
    assert network.gates == built.gates
    assert network.gate_counts() == built.gate_counts()
    for position in (1, n - 1):
        shifted = WNetwork(n, position, 4.0 * math.radians(1.337))
        assert shifted.gates == _shifted_circuit(n, position, 1.337).gates


def _input(n, backend):
    return basis_state(n, "V" + "H" * (n - 1), backend=backend)


@pytest.mark.parametrize("backend", ["dense", "sparse"])
def test_network_runs_bit_identical_to_the_built_circuit_small(backend):
    for n in range(3, 21):
        _assert_same_state(run(WNetwork(n), _input(n, backend)),
                           run(build_w_circuit(n), _input(n, backend)))


@pytest.mark.parametrize("n", [60, 300, 800, 1000, 2000, 4000])
def test_network_runs_bit_identical_to_the_built_circuit_sparse(n):
    _assert_same_state(run(WNetwork(n), _input(n, "sparse")),
                       run(build_w_circuit(n), _input(n, "sparse")))


@pytest.mark.parametrize("n,backend", [(18, "dense"), (40, "sparse")])
def test_shifted_network_runs_bit_identical_to_the_shifted_circuit(n, backend):
    state = _input(n, backend)
    for position in (1, 5, n - 1):
        for delta in DELTAS:
            network = WNetwork(n, position, 4.0 * math.radians(delta))
            _assert_same_state(run(network, state),
                               run(_shifted_circuit(n, position, delta), state))


def test_network_takes_plain_ints_and_floats():
    network = WNetwork(np.int64(6), np.int64(2), np.float64(0.5))
    assert repr(network) == repr(WNetwork(6, 2, 0.5)) == \
        "WNetwork(n_qubits=6, position=2, shift=0.5)"


@pytest.mark.parametrize(
    "args,message",
    [
        ((2,), r"^unsupported size: need n >= 3, got 2$"),
        ((4.5,), r"^qubit count 4\.5 is not an integer$"),
        ((6, 0), r"^gate position must be in \[1, 5\], got 0$"),
        ((6, 6), r"^gate position must be in \[1, 5\], got 6$"),
        ((6, 1.5), r"^gate position 1\.5 is not an integer$"),
        ((6, 1, math.nan), r"^angle shift must be a finite real, got nan$"),
        ((6, 1, math.inf), r"^angle shift must be a finite real, got inf$"),
        ((6, 1, "0.5"), r"^angle shift must be a finite real, got '0\.5'$"),
    ],
)
def test_network_rejects_what_it_cannot_run(args, message):
    with pytest.raises(ValueError, match=message):
        WNetwork(*args)
