"""Byte-for-byte pins of the n=60 outputs, recorded before the circuits were
stored as gate columns and the sparse engine fused CNOT runs, and of the
CZ-level dumps, recorded after the dense engine fused CNOT runs."""
import hashlib

import pytest

from wstates import (
    Level,
    basis_state,
    build_w_circuit,
    dump_state,
    lower,
    run,
    serialize_circuit,
)
from wstates.cli import main

N = 60
INPUT = "V" + "H" * (N - 1)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.fixture(scope="module")
def circuits():
    composite = build_w_circuit(N)
    return composite, lower(composite, Level.ELEMENTARY)


def _sparse_dump(circuit) -> str:
    state = run(circuit, basis_state(N, INPUT, backend="sparse"), backend="sparse")
    return dump_state(state)


def test_composite_circuit_text(circuits):
    assert _sha256(serialize_circuit(circuits[0])) == (
        "dbe29a2f347ee8be5599a10eae0f53faf119d4719fbbc11d86ee40005b6af7d9"
    )


def test_elementary_circuit_text(circuits):
    assert _sha256(serialize_circuit(circuits[1])) == (
        "e10f9bbb15570c31e6bcd7db4ed6306352710e75a0f4bc7914a7eabdb8d144ac"
    )


def test_elementary_sparse_dump(circuits):
    assert _sha256(_sparse_dump(circuits[1])) == (
        "f491b7f5b9e012f9d18265ecdfe5b17de35543d76f0da26ae04a71e83d0f5b98"
    )


def test_composite_sparse_dump(circuits):
    assert _sha256(_sparse_dump(circuits[0])) == (
        "ae8982c2d3544f7ea35e02b8041e2da63e7abda51bde24aeccb1675cce83fc89"
    )


def test_cz_level_sparse_dump(circuits):
    assert _sha256(_sparse_dump(lower(circuits[0], Level.CZ_LEVEL))) == (
        "6fead17a510680fa3945dbadee5552053fce52fdab110787a1c12cb33590ec04"
    )


def test_cz_level_dense_dump():
    # 748 lines: the ~1e-16 residue pins the bits of every dense cz and mix.
    n = 16
    circuit = lower(build_w_circuit(n), Level.CZ_LEVEL)
    state = run(circuit, basis_state(n, "V" + "H" * (n - 1), backend="dense"), backend="dense")
    assert _sha256(dump_state(state)) == (
        "8c34f822c5859a77b1787c47bb7c0372e0fe5bcad1568cce968ae4ad11d9608c"
    )


def test_analyze_stdout(capsys):
    assert main(["analyze", "--n", str(N), "--gamma", "0.1"]) == 0
    assert _sha256(capsys.readouterr().out) == (
        "0ab9cd7dfcd1688f0b641f9d3f319ec32d68c659e2dba1d4c833ce2e28db8355"
    )
