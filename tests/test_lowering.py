"""Lowering passes: structure and exact unitary preservation."""
import math

import numpy as np
import pytest

from wstates import (
    CNOT,
    CZ,
    Circuit,
    F,
    Level,
    ROT,
    build_w_circuit,
    gate_matrix,
    lower,
    unitary_of,
)


def test_lower_f_structure():
    coupler = Circuit(2, (F(1, 2, math.pi / 4),))
    assert lower(coupler, Level.CZ_LEVEL).gates == (
        ROT(2, math.pi / 8),
        CZ(1, 2),
        ROT(2, math.pi / 8),
    )


@pytest.mark.parametrize(
    "alpha", [0.0, math.pi / 4, math.acos(1 / math.sqrt(3)), 0.3, 1.2, math.pi / 2]
)
def test_lower_f_reconstructs_the_coupler(alpha):
    coupler = Circuit(2, (F(1, 2, alpha),))
    u = unitary_of(lower(coupler, Level.CZ_LEVEL))
    np.testing.assert_allclose(u, gate_matrix(F(1, 2, alpha)), atol=1e-14)


def test_lower_f_block_for_three_way_split():
    alpha = math.acos(1 / math.sqrt(3))
    u = unitary_of(lower(Circuit(2, (F(1, 2, alpha),)), Level.CZ_LEVEL))
    assert abs(u[2, 2] - 1 / math.sqrt(3)) < 1e-14
    assert abs(u[3, 2] - math.sqrt(2 / 3)) < 1e-14


def test_f_at_zero_is_cz():
    np.testing.assert_allclose(gate_matrix(F(1, 2, 0.0)), np.diag([1.0, 1, 1, -1]))


def test_lower_cz_structure():
    cz = Circuit(2, (CZ(1, 2),))
    assert lower(cz, Level.ELEMENTARY).gates == (
        ROT(2, math.pi / 4), CNOT(1, 2), ROT(2, math.pi / 4),
    )


def test_lower_cz_reconstructs_cz():
    u = unitary_of(lower(Circuit(2, (CZ(1, 2),)), Level.ELEMENTARY))
    np.testing.assert_allclose(u, np.diag([1.0, 1, 1, -1]), atol=1e-14)
    # |11> picks up the sign, |10> does not.
    assert abs(u[3, 3] + 1) < 1e-14
    assert abs(u[2, 2] - 1) < 1e-14


def test_lower_n3_elementary_counts():
    counts = lower(build_w_circuit(3), Level.ELEMENTARY).gate_counts()
    assert counts == {"CNOT": 4, "ROT": 8}


def test_lower_n5_cnot_count():
    counts = lower(build_w_circuit(5), Level.ELEMENTARY).gate_counts()
    assert counts["CNOT"] == 13


@pytest.mark.parametrize("n", [*range(3, 101), 137, 200, 800])
def test_elementary_counts_match_closed_form(n):
    counts = lower(build_w_circuit(n), Level.ELEMENTARY).gate_counts()
    assert counts["CNOT"] == (n * (n + 1) - 4) // 2
    assert counts["ROT"] == 4 * (n - 1)


def test_lowering_is_idempotent_and_pure():
    circuit = lower(build_w_circuit(4), Level.ELEMENTARY)
    assert lower(circuit, Level.ELEMENTARY) is circuit
    assert lower(build_w_circuit(4), Level.ELEMENTARY) == circuit


def test_invalid_lowering_direction_rejected():
    elementary = lower(build_w_circuit(3), Level.ELEMENTARY)
    with pytest.raises(ValueError, match="invalid lowering"):
        lower(elementary, Level.CZ_LEVEL)
    with pytest.raises(ValueError, match="invalid lowering"):
        lower(elementary, Level.COMPOSITE)
    with pytest.raises(ValueError, match="invalid lowering"):
        lower(lower(build_w_circuit(3), Level.CZ_LEVEL), Level.COMPOSITE)
    # The target is coerced with Level(): a bad one fails before use.
    for bad in (5, -1, "cz"):
        with pytest.raises(ValueError, match=r"is not a valid Level$"):
            lower(elementary, bad)
    assert lower(build_w_circuit(3), 1).level == Level.CZ_LEVEL


def test_cnot_only_circuit_is_elementary_and_cannot_be_raised():
    # Its kinds fit every level, so it is at the lowest, ELEMENTARY, however
    # it was made; that is also the level a file of it parses to.
    cnots = Circuit(3, (CNOT(1, 2), CNOT(3, 1)))
    assert cnots.level == Level.ELEMENTARY
    assert lower(cnots, Level.ELEMENTARY) is cnots
    with pytest.raises(ValueError, match="^invalid lowering: ELEMENTARY cannot be raised to CZ_LEVEL$"):
        lower(cnots, Level.CZ_LEVEL)


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_lowering_preserves_unitary(n):
    composite = build_w_circuit(n)
    reference = unitary_of(composite)
    for target in (Level.CZ_LEVEL, Level.ELEMENTARY):
        diff = np.max(np.abs(unitary_of(lower(composite, target)) - reference))
        assert diff < 1e-12


def test_each_coupler_expands_to_four_plates_and_a_cnot():
    for n in (3, 5, 8):
        composite = build_w_circuit(n)
        lowered = iter(lower(composite, Level.ELEMENTARY).gates)
        for g in composite.gates:
            if g.kind == "CNOT":
                assert next(lowered) == g
            else:
                half, quarter = g.angle / 2, math.pi / 4
                assert next(lowered) == ROT(g.target, half)
                assert next(lowered) == ROT(g.target, quarter)
                assert next(lowered) == CNOT(g.control, g.target)
                assert next(lowered) == ROT(g.target, quarter)
                assert next(lowered) == ROT(g.target, half)
        assert next(lowered, None) is None
