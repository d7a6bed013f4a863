"""Gate matrices, circuit validation, and the brute-force unitary oracle."""
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from wstates import (
    CNOT,
    CZ,
    CapacityError,
    Circuit,
    F,
    Gate,
    Level,
    ROT,
    gate_matrix,
    rotation_matrix,
    unitary_of,
)

ANGLES = st.floats(min_value=-2 * math.pi, max_value=2 * math.pi)


def test_rotation_at_zero_is_z():
    np.testing.assert_array_equal(rotation_matrix(0.0), [[1.0, 0.0], [0.0, -1.0]])


def test_rotation_at_quarter_pi_is_hadamard():
    h = rotation_matrix(math.pi / 4)
    np.testing.assert_allclose(h, np.array([[1, 1], [1, -1]]) / math.sqrt(2), atol=1e-15)


def test_rotation_at_half_pi_is_x():
    np.testing.assert_allclose(rotation_matrix(math.pi / 2), [[0, 1], [1, 0]], atol=1e-15)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rotation_rejects_non_finite(bad):
    with pytest.raises(ValueError):
        rotation_matrix(bad)


@given(ANGLES)
def test_rotation_is_involutory(alpha):
    r = rotation_matrix(alpha)
    np.testing.assert_allclose(r @ r, np.eye(2), atol=1e-14)


@given(ANGLES)
def test_rotation_is_symmetric_orthogonal(alpha):
    r = rotation_matrix(alpha)
    np.testing.assert_array_equal(r, r.T)
    np.testing.assert_allclose(r.T @ r, np.eye(2), atol=1e-14)


def test_cz_matrix_exact():
    np.testing.assert_array_equal(gate_matrix(CZ(1, 2)), np.diag([1.0, 1, 1, -1]))


def test_cnot_matrix_is_swap_of_v_sector():
    m = gate_matrix(CNOT(1, 2))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = expected[2, 3] = expected[3, 2] = 1.0
    np.testing.assert_array_equal(m, expected)


def test_f_matrix_is_controlled_rotation():
    # Controlled Hadamard: exactly the rotation block, identity elsewhere.
    m = gate_matrix(F(1, 2, math.pi / 4))
    np.testing.assert_array_equal(m[:2, :2], np.eye(2))
    np.testing.assert_array_equal(m[2:, 2:], rotation_matrix(math.pi / 4))
    np.testing.assert_array_equal(m[:2, 2:], np.zeros((2, 2)))


def test_f_block_amplitudes_for_three_way_split():
    m = gate_matrix(F(1, 2, math.acos(1 / math.sqrt(3))))
    assert abs(m[2, 2] - 1 / math.sqrt(3)) < 1e-15
    assert abs(m[3, 2] - math.sqrt(2 / 3)) < 1e-15


def test_f_at_zero_collapses_to_cz():
    np.testing.assert_allclose(gate_matrix(F(1, 2, 0.0)), np.diag([1.0, 1, 1, -1]), atol=0)


@given(ANGLES, st.sampled_from(["F", "ROT", "CNOT", "CZ"]))
def test_every_gate_matrix_is_real_orthogonal(alpha, kind):
    if kind == "ROT":
        g = ROT(1, alpha)
    elif kind == "F":
        g = F(1, 2, alpha)
    else:
        g = Gate(kind, 2, 1)
    m = gate_matrix(g)
    assert m.dtype == np.float64
    np.testing.assert_allclose(m.T @ m, np.eye(m.shape[0]), atol=1e-14)


@pytest.mark.parametrize(
    "ctor",
    [
        lambda: Gate("HADAMARD", 1),
        lambda: Gate("CNOT", 2, 2),      # control == target
        lambda: Gate("CNOT", 2),         # missing control
        lambda: Gate("CNOT", 2, 1, 0.5),  # angle on an angle-free kind
        lambda: Gate("ROT", 1, 2, 0.5),  # control on ROT
        lambda: Gate("ROT", 1),          # missing angle
        lambda: Gate("F", 2, 1),         # missing angle
        lambda: Gate("F", 2, 1, math.nan),
        lambda: Gate("CNOT", 0, 1),
        lambda: Gate("CNOT", 2, -1),
    ],
)
def test_gate_invariants_rejected(ctor):
    with pytest.raises(ValueError):
        ctor()


@pytest.mark.parametrize(
    "gates, level",
    [
        ((), Level.ELEMENTARY),
        ((CNOT(1, 2),), Level.ELEMENTARY),
        ((ROT(1, 0.1), CNOT(2, 1)), Level.ELEMENTARY),
        ((ROT(1, 0.1),), Level.ELEMENTARY),
        ((CZ(1, 2),), Level.CZ_LEVEL),
        ((ROT(1, 0.1), CZ(1, 2), CNOT(2, 1)), Level.CZ_LEVEL),
        ((F(1, 2, 0.1),), Level.COMPOSITE),
        ((F(1, 2, 0.1), CNOT(2, 1)), Level.COMPOSITE),
    ],
)
def test_circuit_level_is_the_lowest_that_allows_its_kinds(gates, level):
    assert Circuit(2, gates).level is level


@pytest.mark.parametrize(
    "gates, kinds",
    [
        ((F(1, 2, 0.1), ROT(1, 0.1)), "['F', 'ROT']"),
        ((CZ(1, 2), F(1, 2, 0.1)), "['CZ', 'F']"),
        ((F(1, 2, 0.1), CZ(1, 2), ROT(1, 0.1), CNOT(1, 2)), "['CNOT', 'CZ', 'F', 'ROT']"),
    ],
)
def test_circuit_refuses_kinds_that_fit_no_level(gates, kinds):
    with pytest.raises(ValueError) as info:
        Circuit(2, gates)
    assert str(info.value) == f"gate kinds {kinds} fit no lowering level"


def test_circuit_rejects_out_of_range_indices():
    with pytest.raises(ValueError):
        Circuit(2, (CNOT(1, 3),))
    with pytest.raises(ValueError):
        Circuit(1, ())


def test_unitary_of_empty_circuit_is_identity():
    u = unitary_of(Circuit(2, ()))
    np.testing.assert_array_equal(u, np.eye(4))


def test_unitary_of_cnot_is_permutation():
    u = unitary_of(Circuit(2, (CNOT(1, 2),)))
    expected = np.zeros((4, 4))
    expected[0, 0] = expected[1, 1] = expected[3, 2] = expected[2, 3] = 1.0
    np.testing.assert_array_equal(u, expected)


def test_unitary_applies_first_gate_first():
    # X on wire 1, then CNOT(1,2): |00> -> |10> -> |11>.
    c = Circuit(2, (ROT(1, math.pi / 2), CNOT(1, 2)))
    col = unitary_of(c)[:, 0]
    np.testing.assert_allclose(col, [0, 0, 0, 1], atol=1e-15)


def _random_gate(rng, n, level):
    kind = rng.choice(sorted({"F", "CNOT"} if level == Level.COMPOSITE else {"ROT", "CZ", "CNOT"}))
    a, b = (rng.permutation(n)[:2] + 1).tolist()
    if kind == "ROT":
        return ROT(a, float(rng.uniform(0, math.pi)))
    if kind == "F":
        return F(a, b, float(rng.uniform(0, math.pi)))
    return Gate(kind, b, a)


def test_unitary_composition_is_associative():
    # Splitting a 3-gate product at either point gives the same matrix.
    rng = np.random.default_rng(7)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        level = Level.COMPOSITE if rng.integers(2) else Level.CZ_LEVEL
        gates = [_random_gate(rng, n, level) for _ in range(3)]
        u = lambda sub: unitary_of(Circuit(n, tuple(sub)))
        whole = u(gates)
        np.testing.assert_allclose(whole, u(gates[1:]) @ u(gates[:1]), atol=1e-12)
        np.testing.assert_allclose(whole, u(gates[2:]) @ u(gates[:2]), atol=1e-12)


def test_unitary_is_orthogonal():
    from wstates import build_w_circuit

    for n in (3, 4, 5):
        u = unitary_of(build_w_circuit(n))
        np.testing.assert_allclose(u.T @ u, np.eye(1 << n), atol=1e-12)


def test_unitary_column_of_w3_circuit():
    from wstates import build_w_circuit

    col = unitary_of(build_w_circuit(3))[:, 4]  # input |VHH>
    expected = np.zeros(8)
    expected[[4, 2, 1]] = 1 / math.sqrt(3)
    np.testing.assert_allclose(col, expected, atol=1e-12)


def test_unitary_size_cap():
    big = Circuit(11, (CNOT(1, 2),))
    with pytest.raises(CapacityError, match=r"capped at 10 qubits \(got 11\)"):
        unitary_of(big)
