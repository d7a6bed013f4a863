"""Three independent simulators on random circuits: dense, sparse, unitary_of.

The circuits mix single gates with runs of CNOTs onto one target and with
nested fan-in chains, which both engines apply as a CNOT ladder (see
simulator._plan), so every engine method is exercised: cnot, cz (at the CZ
level) and mix.  Past the dense cap, the sparse engine is held to _oracle,
a dict engine on Python int keys, bit for bit and in entry order, on sizes
that straddle 64-bit word boundaries.
"""
import math
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from wstates import (
    CNOT,
    CZ,
    Circuit,
    F,
    Level,
    QuantumState,
    ROT,
    basis_state,
    build_w_circuit,
    encode_bits,
    lower,
    run,
    unitary_of,
)
from wstates import simulator
from wstates.simulator import PRUNE_THRESHOLD, _SparseEngine


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


def _chain(n, wires, single):
    """A nested fan-in chain of 1-5 runs: each run's controls are the previous
    run's target, then the previous run's controls.  The first run's 1-3
    controls may repeat, and a single gate may break the chain between runs."""

    def gates(targets, first, cut, breaker):
        out = []
        for k, t in enumerate(targets):
            if k == cut:
                out.append(breaker)
            out += [CNOT(c, t) for c in (*targets[:k][::-1], *first)]
        return out

    def for_targets(targets):
        first = st.lists(wires.filter(lambda w: w not in targets), min_size=1, max_size=3)
        # cut == len(targets) leaves the chain whole.
        cut = st.integers(1, len(targets))
        return st.builds(gates, st.just(targets), first, cut, single)

    return st.lists(wires, min_size=1, max_size=min(5, n - 1), unique=True).flatmap(for_targets)


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
        block = st.one_of(single.map(lambda g: [g]), _cnot_run(wires), _chain(n, wires, single))
        blocks = st.lists(block, max_size=8)
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
    # Planned runs and ladders give the same bits as one gate at a time.
    dense_steps = basis_state(n, bits, backend="dense")
    sparse_steps = basis_state(n, bits, backend="sparse")
    for g in circuit.gates:
        dense_steps = run(Circuit(dense_steps.n, (g,)), dense_steps)
        sparse_steps = run(Circuit(sparse_steps.n, (g,)), sparse_steps)
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
# CNOT runs: a run whose one control occurs twice cancels; a control that
# occurs three times counts once; controls on both sides of the target; and
# n=2, where a quarter holds one amplitude.
@example((3, (F(1, 3, 0.7), CNOT(3, 2), CNOT(3, 2)), "100"))
@example((4, (F(1, 2, 0.7), F(1, 3, 0.4), CNOT(2, 4), CNOT(3, 4), CNOT(2, 4), CNOT(2, 4)), "1000"))
@example((5, (F(1, 2, 0.7), F(1, 4, 0.3), F(4, 5, 0.9), CNOT(2, 3), CNOT(5, 3), CNOT(4, 3)), "10000"))
@example((2, (F(1, 2, 0.7), CNOT(2, 1)), "10"))
@example((2, (CNOT(1, 2), CNOT(1, 2), CNOT(1, 2)), "10"))
# Chains of length 1 and 2; a repeated control in the first run; a chain
# broken by a mix; and a chain right after an unrelated run onto its first
# control, which it does not extend.
@example((4, (F(1, 2, 0.7), F(1, 4, 0.4), CNOT(2, 3), CNOT(4, 3)), "1000"))
@example((4, (F(1, 2, 0.7), F(1, 4, 0.4), CNOT(4, 3), CNOT(3, 2), CNOT(4, 2)), "1000"))
@example((4, (F(1, 4, 0.7), CNOT(4, 3), CNOT(4, 3), CNOT(3, 2), CNOT(4, 2), CNOT(4, 2)), "1000"))
@example((4, (F(1, 4, 0.7), CNOT(4, 3), F(1, 3, 0.5), CNOT(3, 2), CNOT(4, 2)), "1000"))
@example((4, (F(1, 2, 0.7), CNOT(1, 4), CNOT(4, 3), CNOT(3, 2), CNOT(4, 2)), "1000"))
def test_composite_circuits_agree_three_ways(drawn):
    n, gates, bits = drawn
    _check_three_ways(Circuit(n, gates), bits)


@settings(max_examples=80, deadline=None)
@given(_circuits(Level.CZ_LEVEL))
@example((2, (ROT(1, 0.7), ROT(2, 0.3), CZ(1, 2), CNOT(2, 1)), "00"))
def test_cz_level_circuits_agree_three_ways(drawn):
    n, gates, bits = drawn
    _check_three_ways(Circuit(n, gates), bits)


@settings(max_examples=80, deadline=None)
@given(_circuits(Level.ELEMENTARY))
@example((2, (ROT(1, 0.7), CNOT(1, 2), ROT(2, 0.3), CNOT(2, 1)), "01"))
def test_elementary_circuits_agree_three_ways(drawn):
    n, gates, bits = drawn
    _check_three_ways(Circuit(n, gates), bits)


@pytest.mark.parametrize("level", list(Level), ids=lambda level: level.name)
@settings(max_examples=50, deadline=None)
@given(data=st.data())
def test_wide_circuits_match_the_oracle(level, data):
    n, gates, bits = data.draw(_circuits(level, WIDE_SIZES, _edge_wire, _few_vs))
    out = run(Circuit(n, gates), basis_state(n, bits, backend="sparse"))
    assert list(out.amplitudes.items()) == _oracle(n, gates, bits)


# A chain whose targets and first-run controls sit on both sides of each
# 64-bit word boundary, from an input with a V on a word's last wire.
_WIDE_CHAIN = tuple(
    CNOT(c, t)
    for k, t in enumerate((64, 65, 128, 129, 1))
    for c in (*(64, 65, 128, 129, 1)[:k][::-1], 63, 130, 63)
)


def test_wide_chain_matches_the_oracle():
    n, bits = 130, "H" * 62 + "V" + "H" * 66 + "V"
    circuit = Circuit(n, (F(63, 64, 0.7), F(130, 129, 0.4)) + _WIDE_CHAIN)
    out = run(circuit, basis_state(n, bits, backend="sparse"))
    assert list(out.amplitudes.items()) == _oracle(n, circuit.gates, bits)
    assert len(out.amplitudes) == 4


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
# about 6e-17 * a.  A one-row selection takes mix's scalar path, larger ones
# its vector path; the last two cases cross 64-bit word boundaries.
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
    circuit = Circuit(n, gates)
    assert circuit.level == level
    out = run(circuit, basis_state(n, bits, backend="sparse"))
    assert list(out.amplitudes.items()) == _oracle(n, gates, bits)
    assert all(abs(a) >= PRUNE_THRESHOLD for a in out.amplitudes.values())


@settings(max_examples=60, deadline=None)
@given(_circuits(Level.COMPOSITE))
def test_lowering_random_composite_circuits_keeps_the_unitary(drawn):
    n, gates, _ = drawn
    composite = Circuit(n, gates)
    reference = unitary_of(composite)
    # A draw without an F is already ELEMENTARY, and a level is never raised.
    for target in (t for t in (Level.CZ_LEVEL, Level.ELEMENTARY) if t <= composite.level):
        lowered = lower(composite, target)
        assert float(np.abs(unitary_of(lowered) - reference).max()) < 1e-12


# --- the own/partner mix against the mix it replaced -------------------------
#
# _reference_mix is _SparseEngine.mix as it was before it took the own/partner
# form: each row moved into an (a0, a1) pair, R(alpha) stated once for one or
# two rows and once for more.  It is kept as the specification of the bits.

def _reference_mix(self, control, target, alpha):
    m = self.m
    rows = np.arange(m) if control is None else np.flatnonzero(self._has(control))
    if rows.size == 0:
        return
    c, s = math.cos(alpha), math.sin(alpha)
    word, bit = self._bit(target)
    if rows.size <= 2:
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


def _sparse_input(n):
    """1-5 basis entries, normalized: any key, or V's on edge wires, so that
    some entries pair under a mix."""
    keys = st.one_of(
        st.integers(0, (1 << n) - 1),
        st.sets(_edge_wire(n), max_size=3).map(lambda ws: sum(1 << (n - w) for w in ws)),
    )
    values = st.one_of(st.floats(0.05, 1.0), st.floats(-1.0, -0.05))

    def normalized(amps):
        norm = math.sqrt(math.fsum(v * v for v in amps.values()))
        return {k: v / norm for k, v in amps.items()}

    return st.dictionaries(keys, values, min_size=1, max_size=5).map(normalized)


def _bits_of(state):
    return [(k, v.hex()) for k, v in state.amplitudes.items()]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(Level)).flatmap(lambda level: _circuits(
    level, st.one_of(st.integers(2, 6), st.sampled_from((63, 64, 65, 66, 130))),
    _edge_wire, _sparse_input)))
# A one-row F; a two-row ROT whose rows pair, and one whose rows do not;
# alpha = 0, where the appended partner is +-0.0 and must be pruned, on one
# row and on two; alpha = pi, whose partner s * a is below PRUNE_THRESHOLD;
# and rows that cross 64-bit word boundaries.  An input row below
# PRUNE_THRESHOLD goes at the first mix, a one-row mix included, and stays
# through a run with no mix; a one-row F(pi/2) on a pruned support leaves
# c * a, about 6e-17, which must go.
@example((3, (F(1, 2, 0.7),), {0b100: 1.0}))
@example((3, (F(1, 3, 0.7),), {0b100: 1.0, 0b010: 1e-16}))
@example((3, (CNOT(1, 2),), {0b100: 1.0, 0b010: 1e-16}))
@example((3, (F(1, 2, 0.7), F(2, 3, math.pi / 2)), {0b100: 1.0}))
@example((2, (ROT(1, 0.7),), {0b00: 0.6, 0b10: 0.8}))
@example((2, (ROT(1, 0.7),), {0b00: 0.6, 0b11: 0.8}))
@example((3, (F(1, 2, 0.0),), {0b100: 1.0}))
@example((2, (ROT(1, 0.0),), {0b00: 0.6, 0b11: -0.8}))
@example((3, (F(1, 2, math.pi),), {0b100: 1.0}))
@example((3, (ROT(2, math.pi),), {0b100: 0.6, 0b001: -0.8}))
@example((65, (ROT(64, 0.7), ROT(65, math.pi)), {1 << 64: 0.6, 0b11: 0.8}))
@example((130, (F(1, 64, 0.7), F(64, 65, 0.3), F(1, 130, math.pi)), {1 << 129: 1.0}))
# Two or more selected rows that all have the target bit clear, then all set,
# so no pair can exist and the sort is skipped; without and with a control,
# whose clear rows stay out of the mix.
@example((3, (ROT(2, 0.7),), {0b100: 0.6, 0b001: 0.8}))
@example((3, (ROT(2, 0.7),), {0b110: 0.6, 0b011: 0.8}))
@example((3, (F(1, 2, 0.7),), {0b100: 0.48, 0b101: 0.6, 0b010: 0.64}))
@example((3, (F(1, 2, 0.7),), {0b110: 0.48, 0b111: 0.6, 0b010: 0.64}))
def test_mix_matches_the_reference_mix(drawn):
    n, gates, amplitudes = drawn
    circuit, state = Circuit(n, gates), QuantumState(n, amplitudes)
    out = run(circuit, state)
    with patch.object(_SparseEngine, "mix", _reference_mix):
        expected = run(circuit, state)
    assert _bits_of(out) == _bits_of(expected)


# --- the pair cache against the mix that sorted every time ------------------
#
# _sorting_mix is _SparseEngine.mix as it was before the pair cache: each mix
# over rows that hold both values of the target bit pairs them by one stable
# sort.  The cached engine must give the same key and amplitude bits after
# every gate.

def _sorting_mix(self, control, target, alpha):
    m = self.m
    rows = np.arange(m) if control is None else np.flatnonzero(self._has(control))
    if rows.size == 0:
        return
    c, s = math.cos(alpha), math.sin(alpha)
    word, bit = self._bit(target)
    if rows.size == 1:
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
    sub = self.keys[:, rows]
    ones = (sub[word] & bit) != 0
    amps = self.amps[rows]
    partner = np.zeros(rows.size)
    lone = np.ones(rows.size, dtype=bool)
    if ones.any() and not ones.all():
        sub[word] &= ~np.uint64(bit)
        order = np.lexsort(sub[::-1])
        ranked = sub[:, order]
        pair = (ranked[:, 1:] == ranked[:, :-1]).all(axis=0)
        lo, hi = order[:-1][pair], order[1:][pair]
        partner[lo], partner[hi] = amps[hi], amps[lo]
        lone[lo] = lone[hi] = False
    self.amps[rows] = np.where(ones, -c, c) * amps + s * partner
    src, vals = rows[lone], s * amps[lone]
    end = m + len(src)
    self._grow(end)
    self.keys[:, m:end] = self.keys[:, src]
    self.keys[word, m:end] ^= np.uint64(bit)
    self.amps[m:end] = vals
    self.m = end
    self._compact()


def _focused_gates(n):
    """0-12 gates that mostly touch one wire t: ROTs on t, and ROTs, Fs,
    CNOTs and CZs on t or on any wire, so CNOTs both controlled by t and onto
    t.  Angles 0, pi/2 and pi leave rows below PRUNE_THRESHOLD, and a ROT
    repeated at one angle is the identity, whose appended rows cancel."""
    wires = _edge_wire(n)

    def for_target(t):
        focus = st.one_of(st.just(t), wires)
        pairs = _wire_pair(focus)
        angles = st.one_of(ANGLES, st.sampled_from((0.0, 0.3, math.pi / 2, math.pi)))
        return st.lists(st.one_of(
            st.builds(ROT, st.just(t), angles),
            st.builds(ROT, wires, angles),
            st.builds(lambda p, a: F(p[0], p[1], a), pairs, angles),
            pairs.map(lambda p: CNOT(*p)),
            pairs.map(lambda p: CZ(*p)),
        ), max_size=12)

    return wires.flatmap(for_target)


def _engine_bits(engine):
    return engine.keys[:, : engine.m].tobytes(), engine.amps[: engine.m].tobytes()


# Each sequence starts with an uncontrolled mix over two rows, which keeps its
# pairing: then a CNOT onto t and a CZ keep it; a CNOT controlled by t, a mix
# on another target, an F and a row pruned by _compact each drop it.  The
# last example grows the engine past its 16 first rows in the mix that keeps
# the pairing on wire 5.
_TWO_ROWS = {0b100: 0.6, 0b001: 0.8}


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.integers(2, 6), st.sampled_from((63, 64, 65, 130))).flatmap(
    lambda n: st.tuples(st.just(n), _focused_gates(n), _sparse_input(n))))
@example((3, (ROT(2, 0.7), ROT(2, 0.4), CNOT(1, 2), ROT(2, 0.4), ROT(2, 0.7)), _TWO_ROWS))
@example((3, (ROT(2, 0.7), CZ(1, 2), ROT(2, 0.7), ROT(2, 0.2)), _TWO_ROWS))
@example((3, (ROT(2, 0.7), CNOT(2, 1), ROT(2, 0.4)), _TWO_ROWS))
@example((3, (ROT(2, 0.7), ROT(3, 0.5), ROT(2, 0.4)), _TWO_ROWS))
@example((3, (ROT(2, 0.7), F(1, 3, 0.5), ROT(2, 0.4)), _TWO_ROWS))
@example((3, (ROT(2, 0.3), ROT(2, 0.3), ROT(2, 0.4), CNOT(3, 2), ROT(2, 0.5)), _TWO_ROWS))
@example((6, (ROT(2, 0.7), ROT(3, 0.5), ROT(4, 0.3), ROT(5, 0.9), CNOT(1, 5), ROT(5, 0.2),
              CZ(5, 6), CNOT(5, 6), ROT(5, 0.4)), {0b000001: 0.6, 0b100000: 0.8}))
def test_pair_cache_matches_the_sorting_mix(drawn):
    n, gates, amplitudes = drawn
    cached, sorting = _SparseEngine(n, amplitudes), _SparseEngine(n, amplitudes)
    for g in gates:
        for engine, mix in ((cached, _SparseEngine.mix), (sorting, _sorting_mix)):
            if g.kind == "CNOT":
                engine.cnot(g.control, g.target)
            elif g.kind == "CZ":
                engine.cz(g.control, g.target)
            else:
                mix(engine, g.control, g.target, g.angle)
        assert _engine_bits(cached) == _engine_bits(sorting), g


# --- the dense engine, in rows, against the engine it replaced --------------
#
# _ReferenceDenseEngine is _DenseEngine as it was before it worked in chunks:
# the state viewed as n axes of 2, each gate over whole half- or quarter-state
# views, in scratch as large as a view.  It is kept as the specification of
# the bits, up to the sign of a zero (see _apply).

def _ix(t, *held):
    """Index into t where each (qubit, bit) is held, at length 1, so no view is 0-d."""
    idx = [slice(None)] * t.ndim
    for qubit, bit in held:
        idx[qubit - 1] = slice(bit, bit + 1)
    return tuple(idx)


class _ReferenceDenseEngine:
    def __init__(self, n, amplitudes):
        self.t = amplitudes.reshape((2,) * n).copy()
        self.scratch = np.empty(0)

    def _scratch(self, shape):
        size = math.prod(shape)
        if self.scratch.size < size:
            self.scratch = np.empty(size)
        return self.scratch[:size].reshape(shape)

    def cnot(self, control, target):
        a, b = (self.t[_ix(self.t, (control, 1), (target, bit))] for bit in (0, 1))
        tmp_a, tmp_b = self._scratch((2, *a.shape))
        np.copyto(tmp_a, a)
        np.copyto(tmp_b, b)
        np.copyto(a, tmp_b)
        np.copyto(b, tmp_a)

    def cz(self, control, target):
        self.t[_ix(self.t, (control, 1), (target, 1))] *= -1.0

    def mix(self, control, target, alpha):
        held = () if control is None else ((control, 1),)
        a, b = (self.t[_ix(self.t, *held, (target, bit))] for bit in (0, 1))
        c, s = math.cos(alpha), math.sin(alpha)
        sa, sb = self._scratch((2, *a.shape))
        np.multiply(a, s, out=sa)
        np.multiply(a, c, out=a)
        np.multiply(b, s, out=sb)
        np.add(a, sb, out=a)
        np.multiply(b, c, out=b)
        np.subtract(sa, b, out=b)

    def amplitudes(self):
        return self.t.reshape(-1)


def _dense_gates(n):
    """1-6 gates of every kind, control above, below or beside the target."""
    wires = _any_wire(n)
    rot = st.builds(ROT, wires, ANGLES)
    if n == 1:
        return st.lists(rot, min_size=1, max_size=6)
    pairs = _wire_pair(wires)
    return st.lists(st.one_of(
        rot,
        st.builds(lambda p, a: F(p[0], p[1], a), pairs, ANGLES),
        pairs.map(lambda p: CNOT(*p)),
        pairs.map(lambda p: CZ(*p)),
    ), min_size=1, max_size=6)


def _apply(engine, gates, after=lambda engine: None):
    for g in gates:
        if g.kind == "CNOT":
            engine.cnot(g.control, g.target)
        elif g.kind == "CZ":
            engine.cz(g.control, g.target)
        else:
            engine.mix(g.control, g.target, g.angle)
        after(engine)
    # Adding +0.0 turns -0.0 into +0.0 and keeps every other bit: a dense run
    # promises the reference's bits up to the sign of a zero, which a pair of
    # dead rows it skips keeps at +0.0.
    return (engine.amplitudes() + 0.0).tobytes()


def _few_nonzeros(n):
    """{index: value}: some entries -0.0, then 1-4 nonzero entries."""
    index = st.integers(0, (1 << n) - 1)
    return st.tuples(
        st.dictionaries(index, st.just(-0.0), max_size=3),
        st.dictionaries(index, st.floats(-1.0, 1.0).filter(bool), min_size=1, max_size=4),
    ).map(lambda d: {**d[0], **d[1]})


def _dense_input(n, source):
    """The standard normal draw of a seed, or zeros but for the {index: value}
    entries of a sparse input."""
    if isinstance(source, int):
        return np.random.default_rng(source).standard_normal(1 << n)
    amplitudes = np.zeros(1 << n)
    amplitudes[list(source)] = list(source.values())
    return amplitudes


def _dead_rows_hold_zero_bits(engine):
    rows = engine.flat.view(np.uint64).reshape(engine.flags.size, -1)
    assert not rows[~engine.flags].any()


# Sizes up to 18 at the real _CHUNK; up to 10 at rows of 1, 2 and 8
# amplitudes, where most qubits are row qubits and blocks are cut at the row.
_CHUNK_SIZES = st.one_of(
    st.tuples(st.integers(1, 18), st.just(simulator._CHUNK)),
    st.tuples(st.integers(1, 10), st.sampled_from((1, 2, 8))),
)


@settings(max_examples=160, deadline=None)
@given(_CHUNK_SIZES.flatmap(lambda nc: st.tuples(
    st.just(nc), _dense_gates(nc[0]),
    st.one_of(st.integers(0, 2**32 - 1), _few_nonzeros(nc[0])))))
# At n=18 and _CHUNK = 2**14: free runs below the lowest qubit longer than a
# row (qubits 1-3), equal to one (4) and shorter (5-18); row targets, whose
# halves are whole rows or halves of rows, and column targets, whose halves
# share a row; control above, below and beside the target.
@example(((18, simulator._CHUNK), (ROT(1, 0.7), ROT(4, 0.3), ROT(18, -1.1)), 1))
@example(((18, simulator._CHUNK), (F(1, 2, 0.7), F(17, 3, 0.3), F(18, 17, -1.1)), 2))
@example(((18, simulator._CHUNK), (CNOT(2, 1), CNOT(9, 16), CNOT(17, 18), CZ(18, 1)), 3))
@example(((2, simulator._CHUNK), (F(2, 1, 0.7), CNOT(1, 2), CZ(2, 1)), 4))
@example(((1, 1), (ROT(1, 0.7),), 5))
# Sparse inputs at n=16, whose 4 rows are indexed by qubits 1 and 2.  The W
# network at n=18 from |VH...H>, which moves one excitation through live and
# dead rows; a ROT at -2.5 (cos and sin negative), which would write -0.0
# into a pair of dead rows, through a row target and a column target, and
# skips it; a CZ, which skips its pairs of dead rows, then a mix that must
# walk the pairs with a live row.
@example(((18, simulator._CHUNK), build_w_circuit(18).gates, {1 << 17: 1.0}))
@example(((16, simulator._CHUNK), (ROT(1, -2.5), ROT(16, -2.5)), {0: 1.0}))
@example(((16, simulator._CHUNK), (ROT(16, -2.5), ROT(2, 0.7)), {0: 1.0, 1 << 15: -0.0}))
@example(((16, simulator._CHUNK), (CZ(1, 2), ROT(1, 0.7)), {0: 1.0}))
# One nonzero at n=18, whose 16 rows are numbered by qubits 1-4, and one
# example for each rule of the flags: a CNOT with a row control and a row
# target swaps them; one with a column control ORs them (the ROT leaves bits
# in both rows); one with a column target leaves them; a mix with a negative
# sine skips the pairs of dead rows and leaves them dead.
@example(((18, simulator._CHUNK), (CNOT(2, 1),), {1 << 16: 1.0}))
@example(((18, simulator._CHUNK), (ROT(9, 0.7), CNOT(9, 2)), {0: 1.0}))
@example(((18, simulator._CHUNK), (CNOT(1, 9),), {1 << 17: 1.0}))
@example(((18, simulator._CHUNK), (ROT(9, -2.5),), {1 << 17: 1.0}))
def test_dense_engine_matches_the_reference_engine(drawn):
    (n, chunk), gates, source = drawn
    amplitudes = _dense_input(n, source)
    expected = _apply(_ReferenceDenseEngine(n, amplitudes), gates)
    with patch.object(simulator, "_CHUNK", chunk):
        engine = simulator._DenseEngine(n, amplitudes)
        assert _apply(engine, gates, _dead_rows_hold_zero_bits) == expected
