"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; with plain `pytest -v` the test names serve the same purpose.
"""
import json
import math
import time

import numpy as np
import pytest

from wstates import (
    Circuit,
    Level,
    angle_sensitivity,
    basis_state,
    build_w_circuit,
    fidelity,
    lower,
    plate_angle_table,
    predicted_counts,
    resource_report,
    run,
    unitary_of,
    w_reference,
)
from wstates.cli import main

TABLE_1 = {3: (4, 2, 2), 4: (8, 3, 5), 5: (13, 4, 9), 6: (19, 5, 14), 7: (26, 6, 20)}


def _passed(num: int, detail: str) -> None:
    print(f"criterion {num}: PASS ({detail})")


def _prep_input(n, backend):
    return basis_state(n, "V" + "H" * (n - 1), backend=backend)


def test_criterion_01_golden_states():
    for n in (3, 4, 5):
        circuit = build_w_circuit(n)
        amp = 1 / math.sqrt(n)
        for backend in ("dense", "sparse"):
            out = run(circuit, _prep_input(n, backend), backend=backend)
            items = dict(out.items())
            assert set(items) == {1 << k for k in range(n)}, (n, backend)
            assert all(abs(v - amp) < 1e-12 for v in items.values()), (n, backend)
    _passed(1, "n=3,4,5 outputs live exactly on the single-V states at 1/sqrt(n)")


def test_criterion_02_reference_count_table():
    for n, expected in TABLE_1.items():
        counts = build_w_circuit(n).gate_counts()
        got = (counts["F"] + counts["CNOT"], counts["F"], counts["CNOT"])
        assert got == expected, (n, got)
    _passed(2, "synthesized counts for n=3..7 equal (4,2,2)...(26,6,20)")


def test_criterion_03_closed_form_vs_constructive_counts():
    for n in range(3, 201):
        circuit = build_w_circuit(n)
        counts = circuit.gate_counts()
        pred = predicted_counts(n)
        assert len(circuit.gates) == pred.total_two_qubit == (n * (n + 1) - 4) // 2
        assert counts["F"] == n - 1
        assert counts["CNOT"] == (n - 2) * (n + 1) // 2
        lowered = lower(circuit, Level.ELEMENTARY).gate_counts()
        assert lowered["CNOT"] == pred.total_two_qubit
    _passed(3, "counts match closed forms for all n in [3, 200], incl. lowered CNOTs")


def test_criterion_04_deterministic_creation_at_scale():
    for n in range(3, 17):
        out = run(build_w_circuit(n), _prep_input(n, "dense"), backend="dense")
        assert fidelity(out, w_reference(n)) >= 1 - 1e-10, n
    for n in (100, 500):
        out = run(build_w_circuit(n), _prep_input(n, "sparse"), backend="sparse")
        assert fidelity(out, w_reference(n)) >= 1 - 1e-10, n
    start = time.perf_counter()
    out = run(build_w_circuit(2000), _prep_input(2000, "sparse"), backend="sparse")
    elapsed = time.perf_counter() - start
    assert fidelity(out, w_reference(2000)) >= 1 - 1e-10
    assert elapsed < 60.0, f"sparse n=2000 took {elapsed:.1f}s"
    _passed(4, f"fidelity >= 1-1e-10 up to n=2000 (2000-qubit run: {elapsed:.1f}s)")


def test_criterion_05_lowering_preserves_unitaries():
    for n in range(3, 9):
        composite = build_w_circuit(n)
        diff = np.max(
            np.abs(unitary_of(lower(composite, Level.ELEMENTARY)) - unitary_of(composite))
        )
        assert diff < 1e-12, (n, diff)
    _passed(5, "elementary circuits reproduce composite unitaries for n <= 8")


def test_criterion_06_success_probability(capsys):
    code = main(["analyze", "--n", "3"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 0
    expected = (1 / 9) ** 4
    assert abs(payload["success_probability"] - expected) / expected < 1e-8
    assert abs(10 ** payload["log10_success_probability"] - expected) / expected < 1e-8
    # n=100: 5048 CNOTs, log10 = 5048*log10(1/9) = -4817.016..., log-domain only
    report = resource_report(100)
    assert abs(report.log10_success_probability - (-4817.016187649712)) < 0.1
    assert report.success_probability is None
    _passed(6, "(1/9)^4 = 1.5242e-4 reproduced; n=100 stays in log domain at -4817.02")


def test_criterion_07_plate_angle_formula():
    table = dict(plate_angle_table(200))
    assert abs(table[200] - 21.486) < 0.005
    assert abs(table[4] - 15.0) < 1e-9
    # the formula gives 21.065 at n=100; the sometimes-quoted 22.05 is not
    # consistent with it and is deliberately not reproduced
    assert abs(table[100] - 21.065207380683304) < 1e-9
    assert abs(table[100] - 22.05) > 0.9
    _passed(7, "plate angles: n=4 -> 15.000, n=100 -> 21.065, n=200 -> 21.486")


def test_criterion_08_angle_sensitivity_properties():
    records = angle_sensitivity(
        100, 1, (0.0, 0.1, 0.2, 0.5, 1.0, 2.0), backend="sparse"
    )
    fids = [r.fidelity for r in records]
    assert abs(fids[0] - 1.0) < 1e-12
    assert all(a > b for a, b in zip(fids, fids[1:]))
    small, double = (
        r.fidelity for r in angle_sensitivity(100, 1, (0.01, 0.02), backend="sparse")
    )
    ratio = (1 - double) / (1 - small)
    assert 3.6 < ratio < 4.4, ratio
    _passed(8, f"fidelity falls strictly and quadratically (ratio {ratio:.3f})")


def test_criterion_09_backend_and_oracle_equivalence():
    for n in range(3, 13):
        composite = build_w_circuit(n)
        for level in Level:
            circuit = composite if level == Level.COMPOSITE else lower(composite, level)
            dense = run(circuit, _prep_input(n, "dense"), backend="dense")
            sparse = run(circuit, _prep_input(n, "sparse"), backend="sparse")
            diff = np.abs(dense.amplitudes - sparse.to_dense().amplitudes)
            assert float(diff.max()) < 1e-12, (n, level.name)
    rng = np.random.default_rng(2024)
    for n in range(3, 9):
        circuit = build_w_circuit(n)
        u = unitary_of(circuit)
        for b in rng.integers(0, 1 << n, size=10):
            bits = format(int(b), f"0{n}b")
            out = run(circuit, basis_state(n, bits, backend="dense"), backend="dense")
            assert float(np.abs(out.amplitudes - u[:, int(b)]).max()) < 1e-12, (n, bits)
    _passed(9, "dense == sparse at every level (n <= 12) and simulator == unitary oracle (n <= 8)")


def test_criterion_10_sparsity_bound():
    for n in range(3, 65):
        state = _prep_input(n, "sparse")
        peak = 1
        for g in build_w_circuit(n).gates:
            state = run(Circuit(state.n, (g,)), state)
            peak = max(peak, state.support_size())
        assert peak <= n, (n, peak)
    _passed(10, "sparse support never exceeds n for n in [3, 64]")
