"""Three independent simulators on random circuits: dense, sparse, unitary_of.

The circuits mix single gates with runs of CNOTs onto one target, which
both engines apply as one fused op, so every engine method is exercised:
cnots, cz (at the CZ level) and mix.
"""
import math

import numpy as np
from hypothesis import given, settings, strategies as st

from wstates import (
    CNOT,
    CZ,
    Circuit,
    F,
    Level,
    ROT,
    apply_gate,
    basis_state,
    lower,
    run,
    unitary_of,
)

ANGLES = st.floats(-math.pi, math.pi)


def _wire_pair(n):
    return st.tuples(st.integers(1, n), st.integers(1, n)).filter(lambda p: p[0] != p[1])


def _cnot_run(n):
    """1-4 CNOTs sharing one target; controls may repeat."""
    return st.integers(1, n).flatmap(
        lambda t: st.lists(
            st.integers(1, n).filter(lambda c: c != t), min_size=1, max_size=4
        ).map(lambda controls: [CNOT(c, t) for c in controls])
    )


def _circuits(level):
    def for_size(n):
        if level == Level.COMPOSITE:
            single = st.builds(lambda p, a: F(p[0], p[1], a), _wire_pair(n), ANGLES)
        elif level == Level.CZ_LEVEL:
            single = st.one_of(
                st.builds(ROT, st.integers(1, n), ANGLES),
                _wire_pair(n).map(lambda p: CZ(*p)),
            )
        else:
            single = st.builds(ROT, st.integers(1, n), ANGLES)
        blocks = st.lists(st.one_of(single.map(lambda g: [g]), _cnot_run(n)), max_size=8)
        return st.tuples(
            st.just(n),
            blocks.map(lambda bs: tuple(g for b in bs for g in b)),
            st.integers(0, (1 << n) - 1).map(lambda i: format(i, f"0{n}b")),
        )

    return st.integers(2, 6).flatmap(for_size)


def _check_three_ways(circuit, bits):
    n = circuit.n_qubits
    column = unitary_of(circuit)[:, int(bits, 2)]
    dense = run(circuit, basis_state(n, bits, backend="dense"), backend="dense")
    sparse = run(circuit, basis_state(n, bits, backend="sparse"), backend="sparse")
    assert float(np.abs(dense.amplitudes - column).max()) < 1e-12
    assert float(np.abs(sparse.to_dense().amplitudes - column).max()) < 1e-12
    # Fused CNOT runs give the same bits as applying one gate at a time.
    dense_steps = basis_state(n, bits, backend="dense")
    sparse_steps = basis_state(n, bits, backend="sparse")
    for g in circuit.gates:
        dense_steps = apply_gate(dense_steps, g)
        sparse_steps = apply_gate(sparse_steps, g)
    assert np.array_equal(dense.amplitudes, dense_steps.amplitudes)
    assert sparse.amplitudes == sparse_steps.amplitudes


@settings(max_examples=80, deadline=None)
@given(_circuits(Level.COMPOSITE))
def test_composite_circuits_agree_three_ways(drawn):
    n, gates, bits = drawn
    _check_three_ways(Circuit(n, gates, Level.COMPOSITE), bits)


@settings(max_examples=80, deadline=None)
@given(_circuits(Level.CZ_LEVEL))
def test_cz_level_circuits_agree_three_ways(drawn):
    n, gates, bits = drawn
    _check_three_ways(Circuit(n, gates, Level.CZ_LEVEL), bits)


@settings(max_examples=80, deadline=None)
@given(_circuits(Level.ELEMENTARY))
def test_elementary_circuits_agree_three_ways(drawn):
    n, gates, bits = drawn
    _check_three_ways(Circuit(n, gates, Level.ELEMENTARY), bits)


@settings(max_examples=60, deadline=None)
@given(_circuits(Level.COMPOSITE))
def test_lowering_random_composite_circuits_keeps_the_unitary(drawn):
    n, gates, _ = drawn
    composite = Circuit(n, gates, Level.COMPOSITE)
    reference = unitary_of(composite)
    for target in (Level.CZ_LEVEL, Level.ELEMENTARY):
        lowered = lower(composite, target)
        assert float(np.abs(unitary_of(lowered) - reference).max()) < 1e-12
