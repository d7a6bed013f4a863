"""Three independent simulators on random circuits: dense, sparse, unitary_of.

The circuits mix single gates with runs of CNOTs onto one target, which
both engines apply as one fused op, so every engine method is exercised:
cnots, cz (at the CZ level) and mix.  Past the dense cap, the sparse engine
is held to _oracle, a dict engine on Python int keys, bit for bit and in
entry order, on sizes that straddle 64-bit word boundaries.
"""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wstates import (
    CNOT,
    CZ,
    Circuit,
    F,
    Level,
    ROT,
    apply_gate,
    basis_state,
    build_w_circuit,
    encode_bits,
    lower,
    run,
    unitary_of,
)
from wstates.simulator import PRUNE_THRESHOLD

ANGLES = st.floats(-math.pi, math.pi)
WIDE_SIZES = st.sampled_from((63, 64, 65, 66, 127, 128, 129, 130))


def _any_wire(n):
    return st.integers(1, n)


def _edge_wire(n):
    """Wires at both ends and beside each 64-bit word boundary, counted from
    either end."""
    bases = (1, 64, 128, n - 63, n - 127, n)
    return st.sampled_from(sorted({w for b in bases for w in range(b - 2, b + 3) if 1 <= w <= n}))


def _any_input(n):
    return st.integers(0, (1 << n) - 1).map(lambda i: format(i, f"0{n}b"))


def _few_vs(n):
    """1-3 V's, on edge wires."""
    return st.sets(_edge_wire(n), min_size=1, max_size=3).map(
        lambda vs: "".join("V" if w in vs else "H" for w in range(1, n + 1))
    )


def _wire_pair(wires):
    return st.tuples(wires, wires).filter(lambda p: p[0] != p[1])


def _cnot_run(wires):
    """1-4 CNOTs sharing one target; controls may repeat."""
    return wires.flatmap(
        lambda t: st.lists(
            wires.filter(lambda c: c != t), min_size=1, max_size=4
        ).map(lambda controls: [CNOT(c, t) for c in controls])
    )


def _circuits(level, sizes=st.integers(2, 6), wire=_any_wire, inputs=_any_input):
    def for_size(n):
        wires = wire(n)
        if level == Level.COMPOSITE:
            single = st.builds(lambda p, a: F(p[0], p[1], a), _wire_pair(wires), ANGLES)
        elif level == Level.CZ_LEVEL:
            single = st.one_of(
                st.builds(ROT, wires, ANGLES),
                _wire_pair(wires).map(lambda p: CZ(*p)),
            )
        else:
            single = st.builds(ROT, wires, ANGLES)
        blocks = st.lists(st.one_of(single.map(lambda g: [g]), _cnot_run(wires)), max_size=8)
        return st.tuples(
            st.just(n), blocks.map(lambda bs: tuple(g for b in bs for g in b)), inputs(n)
        )

    return sizes.flatmap(for_size)


def _oracle(n, gates, bits):
    """The sparse engine's entries, one gate at a time on a dict: a mix visits
    its sectors in entry order, appends missing partners in that order and
    then drops entries below PRUNE_THRESHOLD."""
    amps = {encode_bits(bits): 1.0}
    for g in gates:
        t = 1 << (n - g.target)
        c = 0 if g.control is None else 1 << (n - g.control)
        if g.kind == "CNOT":
            amps = {k ^ t if k & c else k: a for k, a in amps.items()}
        elif g.kind == "CZ":
            amps = {k: -a if k & c and k & t else a for k, a in amps.items()}
        else:
            co, si = math.cos(g.angle), math.sin(g.angle)
            for k0 in {k & ~t: None for k in amps if (k & c) == c}:
                a0, a1 = amps.get(k0, 0.0), amps.get(k0 | t, 0.0)
                amps[k0], amps[k0 | t] = co * a0 + si * a1, si * a0 - co * a1
            amps = {k: a for k, a in amps.items() if abs(a) >= PRUNE_THRESHOLD}
    return list(amps.items())


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
    assert list(sparse.amplitudes.items()) == _oracle(n, circuit.gates, bits)


@settings(max_examples=80, deadline=None)
@given(_circuits(Level.COMPOSITE))
# An F whose control selects one row; two rows that pair; two that do not;
# three rows, all without a partner; three rows, a pair and one without.
@example((3, (F(1, 2, 0.7),), "100"))
@example((3, (F(1, 2, 0.7), F(1, 2, 0.3)), "100"))
@example((3, (F(1, 2, 0.7), F(1, 3, 0.3)), "100"))
@example((4, (F(1, 2, 0.7), F(2, 3, 0.3), F(1, 4, 0.5)), "1000"))
@example((3, (F(1, 2, 0.7), F(2, 3, 0.3), F(1, 3, 0.5)), "100"))
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


@pytest.mark.parametrize("level", list(Level), ids=lambda level: level.name)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_wide_circuits_match_the_oracle(level, data):
    n, gates, bits = data.draw(_circuits(level, WIDE_SIZES, _edge_wire, _few_vs))
    out = run(Circuit(n, gates, level), basis_state(n, bits, backend="sparse"))
    assert list(out.amplitudes.items()) == _oracle(n, gates, bits)


@pytest.mark.parametrize("level", list(Level), ids=lambda level: level.name)
@pytest.mark.parametrize("n", [65, 129])
def test_w_network_matches_the_oracle(n, level):
    circuit = build_w_circuit(n)
    if level != Level.COMPOSITE:
        circuit = lower(circuit, level)
    bits = "V" + "H" * (n - 1)
    out = run(circuit, basis_state(n, bits, backend="sparse"))
    assert list(out.amplitudes.items()) == _oracle(n, circuit.gates, bits)


# Mixes whose lone partner falls below PRUNE_THRESHOLD, from |VH...H>: a row
# mixed by R(alpha) splits off sin(alpha) * a, exactly 0.0 at alpha = 0 and
# about 1.2e-16 * a at alpha = pi, while R(pi/2) leaves the row itself at
# about 6e-17 * a.  Selections of up to two rows take mix's scalar path,
# larger ones its vector path; the last two cases cross 64-bit word boundaries.
_RAMP = (ROT(1, 0.7), ROT(2, 0.3))  # four rows from any basis input
SUB_THRESHOLD_MIXES = [
    (3, Level.ELEMENTARY, (ROT(2, math.pi / 2),)),
    (3, Level.ELEMENTARY, (ROT(2, math.pi),)),
    (3, Level.COMPOSITE, (F(1, 2, 0.0),)),
    (3, Level.COMPOSITE, (F(1, 2, 0.7), F(1, 3, 0.0), F(2, 3, math.pi))),
    (3, Level.ELEMENTARY, _RAMP + (ROT(3, math.pi / 2),)),
    (3, Level.ELEMENTARY, _RAMP + (ROT(3, math.pi), ROT(3, 0.0))),
    (4, Level.COMPOSITE, (F(1, 2, 0.7), F(2, 3, 0.3), F(1, 4, 0.0), F(1, 4, math.pi))),
    (65, Level.ELEMENTARY, (ROT(64, 0.7), ROT(2, 0.3), ROT(65, math.pi), ROT(1, math.pi / 2))),
    (130, Level.COMPOSITE, (F(1, 64, 0.7), F(64, 65, 0.3), F(1, 129, 0.0), F(1, 130, math.pi))),
]


@pytest.mark.parametrize("n, level, gates", SUB_THRESHOLD_MIXES)
def test_sub_threshold_partners_match_the_oracle(n, level, gates):
    bits = "V" + "H" * (n - 1)
    out = run(Circuit(n, gates, level), basis_state(n, bits, backend="sparse"))
    assert list(out.amplitudes.items()) == _oracle(n, gates, bits)
    assert all(abs(a) >= PRUNE_THRESHOLD for a in out.amplitudes.values())


@settings(max_examples=60, deadline=None)
@given(_circuits(Level.COMPOSITE))
def test_lowering_random_composite_circuits_keeps_the_unitary(drawn):
    n, gates, _ = drawn
    composite = Circuit(n, gates, Level.COMPOSITE)
    reference = unitary_of(composite)
    for target in (Level.CZ_LEVEL, Level.ELEMENTARY):
        lowered = lower(composite, target)
        assert float(np.abs(unitary_of(lowered) - reference).max()) < 1e-12
