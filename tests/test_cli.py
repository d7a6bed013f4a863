"""CLI behavior: output formats, exit codes, determinism."""
import gc
import json
import math
import subprocess
import sys
import time
import tracemalloc

import pytest

from wstates import parse_circuit
from wstates.analysis import DEFAULT_DELTAS, DEFAULT_EXTRA_PAIR_RATE, DEFAULT_GATE_SUCCESS
from wstates.cli import build_parser, main, program
from wstates.base import ROW_CAP

EMPTY_2Q = "wcircuit 1\nqubits 2\n"


def cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_synth_stdout(capsys):
    code, out, _ = cli(capsys, "synth", "--n", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "wcircuit 1"
    assert lines[1] == "qubits 3"
    assert len(lines) == 6  # 4 gate lines


def test_synth_n4_ends_with_fan_in(capsys):
    code, out, _ = cli(capsys, "synth", "--n", "4")
    assert code == 0
    gate_lines = out.splitlines()[2:]
    assert len(gate_lines) == 8
    assert gate_lines[-1] == "CNOT 4 1"


def test_synth_round_trips_through_file(tmp_path, capsys):
    path = tmp_path / "c.wc"
    code, out, _ = cli(capsys, "synth", "--n", "5", "--out", str(path))
    assert code == 0 and out == ""
    from wstates import build_w_circuit

    assert parse_circuit(path.read_text()) == build_w_circuit(5)


@pytest.mark.parametrize("sizes", [range(3, 301), (999, 1000, 2047)], ids=["3-300", "cap"])
def test_synth_writes_the_bytes_of_the_serialized_circuit(tmp_path, sizes):
    from wstates import build_w_circuit, serialize_circuit

    path = tmp_path / "c.wc"
    for n in sizes:
        assert main(["synth", "--n", str(n), "--out", str(path)]) == 0
        assert path.read_bytes() == serialize_circuit(build_w_circuit(n)).encode(), n


def test_synth_rejects_small_n(capsys):
    code, _, err = cli(capsys, "synth", "--n", "2")
    assert code == 2
    assert "unsupported size" in err


def test_lower_verb(tmp_path, capsys):
    src = tmp_path / "c.wc"
    cli(capsys, "synth", "--n", "3", "--out", str(src))
    code, out, _ = cli(capsys, "lower", "--circuit", str(src), "--to", "elementary")
    assert code == 0
    circuit = parse_circuit(out)
    assert circuit.gate_counts() == {"CNOT": 4, "ROT": 8}


def test_lower_agrees_with_the_library_on_a_cnot_only_file(tmp_path, capsys):
    # CNOTs alone are ELEMENTARY: lowering them to cz would raise the level.
    path = tmp_path / "cnots.wc"
    path.write_text("wcircuit 1\nqubits 2\nCNOT 1 2\n")
    assert cli(capsys, "lower", "--circuit", str(path), "--to", "elementary") == (
        0, "wcircuit 1\nqubits 2\nCNOT 1 2\n", "")
    assert cli(capsys, "lower", "--circuit", str(path), "--to", "cz") == (
        2, "", "error: invalid lowering: ELEMENTARY cannot be raised to CZ_LEVEL\n")


@pytest.mark.parametrize(
    "line, message",
    [("CNOT 1_0 2", "bad qubit index '1_0'"), ("F +1 \u0662 0.5", "bad qubit index '+1'")],
)
def test_lower_rejects_tokens_int_would_take(tmp_path, capsys, line, message):
    path = tmp_path / "loose.wc"
    path.write_text(f"wcircuit 1\nqubits 12\n{line}\n", encoding="utf-8")
    assert cli(capsys, "lower", "--circuit", str(path), "--to", "elementary") == (
        2, "", f"error: line 3: {message}\n")


def test_simulate_w3(tmp_path, capsys):
    src = tmp_path / "c.wc"
    cli(capsys, "synth", "--n", "3", "--out", str(src))
    code, out, _ = cli(capsys, "simulate", "--circuit", str(src), "--input", "VHH")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 3
    for line in lines:
        bits, amp = line.split()
        assert bits.count("1") == 1
        assert abs(float(amp) - 1 / math.sqrt(3)) < 1e-12


def test_simulate_w5_sparse(tmp_path, capsys):
    src = tmp_path / "c.wc"
    cli(capsys, "synth", "--n", "5", "--out", str(src))
    code, out, _ = cli(
        capsys, "simulate", "--circuit", str(src), "--input", "VHHHH",
        "--backend", "sparse",
    )
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 5
    assert all(abs(float(ln.split()[1]) - 1 / math.sqrt(5)) < 1e-12 for ln in lines)


def test_simulate_empty_circuit(tmp_path, capsys):
    src = tmp_path / "empty.wc"
    src.write_text(EMPTY_2Q)
    code, out, _ = cli(capsys, "simulate", "--circuit", str(src), "--input", "HH")
    assert code == 0
    assert out == "00 1\n"


def test_simulate_parse_failure_exits_2(tmp_path, capsys):
    src = tmp_path / "bad.wc"
    src.write_text("wcircuit 1\nqubits 2\nBOGUS 1 2\n")
    code, _, err = cli(capsys, "simulate", "--circuit", str(src), "--input", "HH")
    assert code == 2 and "BOGUS" in err


def test_simulate_missing_file_exits_2(tmp_path, capsys):
    code, _, _ = cli(capsys, "simulate", "--circuit", str(tmp_path / "nope.wc"),
                     "--input", "HH")
    assert code == 2


def test_simulate_input_length_mismatch_exits_2(tmp_path, capsys):
    src = tmp_path / "c.wc"
    cli(capsys, "synth", "--n", "3", "--out", str(src))
    code, _, _ = cli(capsys, "simulate", "--circuit", str(src), "--input", "VH")
    assert code == 2


def test_simulate_capacity_exits_3(tmp_path, capsys):
    src = tmp_path / "c.wc"
    cli(capsys, "synth", "--n", "25", "--out", str(src))
    code, _, err = cli(
        capsys, "simulate", "--circuit", str(src), "--input", "V" + "H" * 24,
        "--backend", "dense",
    )
    assert code == 3 and "capped" in err


@pytest.mark.parametrize(
    "argv", [("lower", "--to", "elementary"), ("simulate", "--input", "VHH")],
    ids=["lower", "simulate"],
)
def test_file_verbs_exit_3_past_the_file_cap(monkeypatch, tmp_path, capsys, argv):
    import wstates.circuit_io

    def no_parse(text):
        raise AssertionError("a file past the cap was parsed")

    src = tmp_path / "c.wc"
    cli(capsys, "synth", "--n", "3", "--out", str(src))
    cap = src.stat().st_size - 1
    monkeypatch.setattr(wstates.circuit_io, "FILE_CAP", cap)
    monkeypatch.setattr(wstates.circuit_io, "parse_circuit", no_parse)
    assert cli(capsys, argv[0], "--circuit", str(src), *argv[1:]) == (
        3, "", f"error: the file {src} is longer than the cap of {cap} characters\n")


def test_simulate_checks_input_before_capacity(tmp_path, capsys):
    src = tmp_path / "c.wc"
    cli(capsys, "synth", "--n", "25", "--out", str(src))
    code, _, err = cli(
        capsys, "simulate", "--circuit", str(src), "--input", "VH", "--backend", "dense"
    )
    assert code == 2 and err == "error: expected 25 characters, got 2\n"

def test_verify_small(capsys):
    code, out, _ = cli(capsys, "verify", "--n", "3")
    assert code == 0
    assert out == "n=3 fidelity=1.000000000000\n"


def test_verify_n7(capsys):
    code, out, _ = cli(capsys, "verify", "--n", "7")
    assert code == 0
    assert out.startswith("n=7 fidelity=")


def test_verify_sparse_500(capsys):
    code, out, _ = cli(capsys, "verify", "--n", "500")
    assert code == 0
    assert float(out.split("fidelity=")[1]) >= 1 - 1e-10


def test_verify_at_the_sparse_cap(capsys):
    # About a second: the fan-in chain runs as a ladder of single CNOTs.
    code, out, _ = cli(capsys, "verify", "--n", "10000")
    assert code == 0
    assert out == "n=10000 fidelity=1.000000000000\n"


def _reference_verify(n, backend):
    """(stdout, exit code) of verify as its own pipeline, before it became
    angle_sensitivity at a plate-angle offset of 0."""
    from wstates import WNetwork, basis_state, fidelity, run, w_reference
    from wstates.cli import FIDELITY_PASS
    from wstates.simulator import resolve_backend

    backend = resolve_backend(n, backend)
    out = run(WNetwork(n), basis_state(n, "V" + "H" * (n - 1), backend=backend))
    fid = fidelity(out, w_reference(n))
    return f"n={n} fidelity={fid:.12f}\n", 0 if fid >= FIDELITY_PASS else 2


@pytest.mark.parametrize(
    "n, backend",
    [*((n, b) for n in range(3, 23) for b in ("dense", "sparse", "auto")),
     *((n, b) for n in (300, 800, 2000) for b in ("sparse", "auto"))],
)
def test_verify_matches_its_own_pipeline(capsys, n, backend):
    code, out, err = cli(capsys, "verify", "--n", str(n), "--backend", backend)
    assert (out, code) == _reference_verify(n, backend) and err == ""


def test_verify_past_the_float_range_exits_2(capsys):
    # The size is checked before the backend's cap, as analyze and sweep do.
    code, out, err = cli(capsys, "verify", "--n", str(10**200))
    assert code == 2 and out == ""
    assert err == "error: unsupported size: need n <= 1.896e+154, whose gate count is a float\n"


def test_verify_3_to_16_under_ten_seconds(capsys):
    start = time.perf_counter()
    for n in range(3, 17):
        code, out, _ = cli(capsys, "verify", "--n", str(n))
        assert code == 0, out
    assert time.perf_counter() - start < 10.0


def test_analyze_json_shape(capsys):
    code, out, _ = cli(capsys, "analyze", "--n", "3")
    assert code == 0
    payload = json.loads(out)
    assert list(payload) == [
        "n",
        "counts",
        "elementary_cnots",
        "gate_success_prob",
        "log10_success_probability",
        "success_probability",
        "pdc",
    ]
    assert payload["counts"] == {"total": 4, "f": 2, "cnot": 2}
    assert payload["elementary_cnots"] == 4
    assert payload["log10_success_probability"] == pytest.approx(-3.81697003776, abs=1e-9)
    assert payload["success_probability"] == pytest.approx((1 / 9) ** 4, rel=1e-9)
    assert payload["pdc"] is None


def test_analyze_with_pdc_block(capsys):
    code, out, _ = cli(capsys, "analyze", "--n", "3", "--gamma", "0.1")
    payload = json.loads(out)
    assert code == 0
    assert payload["pdc"] == {
        "gamma": 0.1,
        "delta": 0.0001,
        "log10_desired": -3.0,
        "log10_error": -7.0,
    }


def test_analyze_large_n_stays_in_log_domain(capsys):
    code, out, _ = cli(capsys, "analyze", "--n", "100")
    payload = json.loads(out)
    assert code == 0
    assert payload["success_probability"] is None
    assert payload["log10_success_probability"] == pytest.approx(-4817.01618765, abs=1e-4)


def test_analyze_rejects_bad_p(capsys):
    code, _, _ = cli(capsys, "analyze", "--n", "3", "--p", "0")
    assert code == 2


def test_angles_csv(capsys):
    code, out, _ = cli(capsys, "angles", "--max", "200")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,plate_angle_degrees"
    assert len(lines) == 199
    n, angle = lines[-1].split(",")
    assert n == "200"
    assert abs(float(angle) - 21.486298193) < 1e-6


def test_growth_csv_matches_reference_counts(capsys):
    code, out, _ = cli(capsys, "growth", "--max", "7")
    assert code == 0
    assert out.splitlines() == [
        "n,total,f_count,cnot_count",
        "3,4,2,2",
        "4,8,3,5",
        "5,13,4,9",
        "6,19,5,14",
        "7,26,6,20",
    ]


@pytest.mark.parametrize("block", [1, 7])
@pytest.mark.parametrize(
    "argv",
    [("angles", "--max", "40"), ("growth", "--max", "40"),
     ("sweep", "--n", "8", "--deltas", "0,0.1,0.2,0.5,1,2,3,5,8")],
    ids=["angles", "growth", "sweep"],
)
def test_csv_bytes_do_not_depend_on_the_block_size(monkeypatch, capsys, argv, block):
    import wstates.base

    code, expected, _ = cli(capsys, *argv)
    assert code == 0 and expected.count("\n") > block
    monkeypatch.setattr(wstates.base, "_WRITE_BLOCK", block)
    assert cli(capsys, *argv) == (0, expected, "")


def test_growth_rejects_small_max(capsys):
    code, out, err = cli(capsys, "growth", "--max", "2")
    assert code == 2
    assert out == ""
    assert err == "error: need n_max >= 3, got 2\n"


@pytest.mark.parametrize(
    "argv, rows",
    [
        (("synth", "--n", "2048"), 2098174),
        (("angles", "--max", str(ROW_CAP + 3)), ROW_CAP + 1),
        (("growth", "--max", str(ROW_CAP + 3)), ROW_CAP + 1),
        (("growth", "--max", str(10**30)), 10**30 - 2),
    ],
)
def test_row_cap_exits_3_before_building(monkeypatch, capsys, argv, rows):
    import wstates.analysis
    import wstates.base
    import wstates.cli

    def no_rows(*args, **kwargs):
        raise AssertionError("a row was built past the cap")

    monkeypatch.setattr(wstates.cli, "build_w_circuit", no_rows)
    monkeypatch.setattr(wstates.base, "_network_ops", no_rows)
    monkeypatch.setattr(wstates.base, "_coupler_alpha", no_rows)
    monkeypatch.setattr(wstates.analysis, "predicted_counts", no_rows)
    monkeypatch.setattr(wstates.analysis, "_coupler_alpha", no_rows)
    code, out, err = cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: the ") and err.endswith(
        f" has {rows} rows, above the cap of {ROW_CAP}\n")


def test_row_cap_admits_the_sizes_at_it():
    from wstates.analysis import _table_size
    from wstates.synthesis import predicted_counts

    assert predicted_counts(2047).total_two_qubit <= ROW_CAP < predicted_counts(2048).total_two_qubit
    assert _table_size(ROW_CAP + 2) == ROW_CAP + 2


def test_sweep_csv(capsys):
    code, out, _ = cli(capsys, "sweep", "--n", "8", "--deltas", "1,0,0.5")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,perturbed_gate_position,delta_plate_angle,fidelity"
    rows = [line.split(",") for line in lines[1:]]
    assert [r[2] for r in rows] == ["0", "0.5", "1"]  # sorted by offset
    for _, _, delta, fid in rows:
        expected = math.cos(4 * math.radians(float(delta))) ** 2
        assert abs(float(fid) - expected) < 1e-9


def test_sweep_rejects_empty_deltas(capsys):
    code, _, _ = cli(capsys, "sweep", "--n", "8", "--deltas", ",")
    assert code == 2


def test_unknown_verb_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_output_is_byte_identical_across_invocations(capsys):
    _, first, _ = cli(capsys, "synth", "--n", "6")
    _, second, _ = cli(capsys, "synth", "--n", "6")
    assert first == second
    _, first, _ = cli(capsys, "analyze", "--n", "5", "--gamma", "0.25")
    _, second, _ = cli(capsys, "analyze", "--n", "5", "--gamma", "0.25")
    assert first == second


def test_module_entry_point_subprocess(tmp_path, capsys):
    synth = subprocess.run(
        [sys.executable, "-m", "wstates", "synth", "--n", "3"],
        capture_output=True, text=True,
    )
    assert synth.returncode == 0
    src = tmp_path / "c.wc"
    src.write_text(synth.stdout)
    sim = subprocess.run(
        [sys.executable, "-m", "wstates", "simulate", "--circuit", str(src),
         "--input", "VHH"],
        capture_output=True, text=True,
    )
    assert sim.returncode == 0
    assert len(sim.stdout.splitlines()) == 3
    # The process entry gives main's bytes and exit code: a stdout of
    # several 4,096-line blocks, a bad input and an over-cap size.
    for argv, code in ((("growth", "--max", "20000"), 0), (("synth", "--n", "1"), 2),
                       (("verify", "--n", "10001"), 3)):
        child = subprocess.run([sys.executable, "-m", "wstates", *argv], capture_output=True)
        assert cli(capsys, *argv) == (code, child.stdout.decode(), child.stderr.decode())
        assert child.returncode == code


@pytest.mark.parametrize("argv", [("analyze", "--n", "5"), ("verify", "--n", "5")],
                         ids=["light", "numpy"])
def test_main_leaves_the_collector_as_it_found_it(capsys, argv):
    before = gc.isenabled(), gc.get_freeze_count()
    assert cli(capsys, *argv)[0] == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


@pytest.mark.parametrize("argv, code", [(("analyze", "--n", "5"), 0), (("synth",), 2)],
                         ids=["returns", "raises"])
def test_program_freezes_the_heap_once_the_verb_is_done(monkeypatch, capsys, argv, code):
    monkeypatch.setattr(sys, "argv", ["wstates", *argv])
    frozen = gc.get_freeze_count()
    try:
        try:
            assert program() == code
        except SystemExit as exc:  # argparse's exit on a usage error
            assert exc.code == code
        assert gc.get_freeze_count() > frozen
    finally:
        gc.unfreeze()


def _no_engine(monkeypatch, when):
    """Make building either engine, which allocates the run's storage, fail."""
    import wstates.simulator

    def no_engine(n, amplitudes):
        raise AssertionError(f"an engine for {n} qubits was built {when}")

    monkeypatch.setattr(wstates.simulator, "_DenseEngine", no_engine)
    monkeypatch.setattr(wstates.simulator, "_SparseEngine", no_engine)


@pytest.mark.parametrize(
    "argv",
    [("verify", "--n", "10001"), ("verify", "--n", "25", "--backend", "dense")],
)
def test_verify_checks_capacity_before_building(monkeypatch, capsys, argv):
    _no_engine(monkeypatch, "before the capacity check")
    code, out, err = cli(capsys, *argv)
    assert code == 3 and out == ""
    assert err.startswith("error: ") and "capped" in err


def test_sparse_support_budget_exits_3(monkeypatch, tmp_path, capsys):
    import wstates.simulator

    path = str(tmp_path / "w12.wc")
    assert cli(capsys, "synth", "--n", "12", "--out", path)[0] == 0
    monkeypatch.setattr(wstates.simulator, "SPARSE_ENGINE_BYTES", 64 * (12 + 8))
    code, out, err = cli(
        capsys, "simulate", "--circuit", path, "--input", "VHVHVHVHVHVH", "--backend", "sparse"
    )
    assert code == 3 and out == ""
    assert err.startswith("error: sparse support of ") and err.count("\n") == 1


def test_memory_error_exits_3_without_traceback(monkeypatch, capsys):
    import wstates.cli

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(wstates.cli, "resource_report", exhausted)
    code, out, err = cli(capsys, "analyze", "--n", "9000")
    assert code == 3 and out == ""
    assert err == "error: out of memory\n"


def test_analyze_past_the_float_range_exits_2(capsys):
    code, out, err = cli(capsys, "analyze", "--n", str(10**200))
    assert code == 2 and out == ""
    assert err == "error: unsupported size: need n <= 1.896e+154, whose gate count is a float\n"
    code, out, _ = cli(capsys, "analyze", "--n", str(10**150), "--gamma", "0.1")
    assert code == 0
    report = json.loads(out)
    assert report["elementary_cnots"] == (10**150 * (10**150 + 1) - 4) // 2
    assert report["log10_success_probability"] == -4.7712125472e299
    assert report["pdc"]["log10_desired"] == -1e150


def test_analyze_reports_without_building(monkeypatch, capsys):
    import wstates.analysis

    def no_circuit(*args, **kwargs):
        raise AssertionError("analyze built or lowered a circuit")

    monkeypatch.setattr(wstates.analysis, "build_w_circuit", no_circuit)
    monkeypatch.setattr(wstates.analysis, "lower", no_circuit)
    code, out, _ = cli(capsys, "analyze", "--n", "9000", "--gamma", "0.1")
    assert code == 0
    report = json.loads(out)
    assert report["counts"] == {"total": 40504498, "f": 8999, "cnot": 40495499}
    assert report["elementary_cnots"] == 40504498


@pytest.mark.parametrize(
    "argv,expected",
    [
        (("sweep", "--n", "10001"), 3),
        (("sweep", "--n", "25", "--backend", "dense"), 3),
        (("sweep", "--n", "5000", "--position", "0"), 2),
        (("sweep", "--n", "5000", "--deltas", "nan"), 2),
    ],
)
def test_sweep_validates_before_building(monkeypatch, capsys, argv, expected):
    _no_engine(monkeypatch, "before sweep validated")
    code, out, err = cli(capsys, *argv)
    assert code == expected and out == ""
    assert err.startswith("error: ")
    if expected == 3:
        assert "backend capped at" in err


def test_verify_and_sweep_run_without_building(monkeypatch, capsys):
    import wstates.analysis
    import wstates.cli

    def no_circuit(*args, **kwargs):
        raise AssertionError("verify or sweep built the circuit")

    monkeypatch.setattr(wstates.cli, "build_w_circuit", no_circuit)
    monkeypatch.setattr(wstates.analysis, "build_w_circuit", no_circuit)
    assert cli(capsys, "verify", "--n", "800") == (0, "n=800 fidelity=1.000000000000\n", "")
    assert cli(capsys, "sweep", "--n", "300", "--deltas", "0,1") == (
        0,
        "n,perturbed_gate_position,delta_plate_angle,fidelity\n"
        "300,1,0,1\n"
        "300,1,1,0.995134034371\n",
        "",
    )


def test_verify_memory_stays_linear(capsys):
    # The gate columns of n=2000 alone take 34 MB; the run needs about 1.6 MB.
    tracemalloc.start()
    try:
        code = main(["verify", "--n", "2000"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out == "n=2000 fidelity=1.000000000000\n"
    assert peak <= 4e6


@pytest.mark.parametrize("verb", ["angles", "growth"])
def test_tables_stream_to_the_file(tmp_path, capsys, verb):
    # Held whole as rows, lines and one joined string, these tables take tens
    # of MB at --max 300000; written a block of lines at a time, one block.
    path = tmp_path / "t.csv"
    tracemalloc.start()
    try:
        code = main([verb, "--max", "300000", "--out", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0 and capsys.readouterr().out == ""
    assert peak <= 4e6
    code, out, _ = cli(capsys, verb, "--max", "300000")
    assert code == 0 and out.count("\n") == 1 + (300000 - 2)  # header, n = 3..300000
    assert path.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv, code",
    [
        (("angles", "--max", "2"), 2),
        (("growth", "--max", str(ROW_CAP + 3)), 3),
        (("sweep", "--n", "8", "--deltas", ""), 2),
    ],
)
def test_refused_verbs_leave_no_file(tmp_path, capsys, argv, code):
    path = tmp_path / "f"
    assert cli(capsys, *argv, "--out", str(path))[:2] == (code, "")
    assert not path.exists()


def test_sweep_rejects_small_n(capsys):
    code, _, err = cli(capsys, "sweep", "--n", "1")
    assert code == 2
    assert err == "error: unsupported size: need n >= 3, got 1\n"


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--n", "25"],
        ["simulate", "--circuit", "c.txt", "--input", "VHH"],
        ["sweep", "--n", "25"],
    ],
)
def test_auto_threshold_flag_is_rejected(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--auto-threshold", "30"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --auto-threshold" in capsys.readouterr().err


def test_cli_defaults_are_the_library_constants():
    parser = build_parser()
    analyze = parser.parse_args(["analyze", "--n", "5"])
    assert analyze.p == DEFAULT_GATE_SUCCESS
    assert analyze.delta == DEFAULT_EXTRA_PAIR_RATE
    sweep = parser.parse_args(["sweep", "--n", "5"])
    assert tuple(float(tok) for tok in sweep.deltas.split(",")) == DEFAULT_DELTAS
