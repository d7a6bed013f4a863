"""CLI behavior: output formats, exit codes, determinism."""
import json
import math
import subprocess
import sys
import time

import pytest

from wstates import parse_circuit
from wstates.analysis import DEFAULT_DELTAS, DEFAULT_EXTRA_PAIR_RATE, DEFAULT_GATE_SUCCESS
from wstates.cli import build_parser, main

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


def test_growth_rejects_small_max(capsys):
    code, out, err = cli(capsys, "growth", "--max", "2")
    assert code == 2
    assert out == ""
    assert err == "error: need n_max >= 3, got 2\n"


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


def test_module_entry_point_subprocess(tmp_path):
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
    bad = subprocess.run(
        [sys.executable, "-m", "wstates", "synth", "--n", "1"],
        capture_output=True, text=True,
    )
    assert bad.returncode == 2


def _no_build(n):
    raise AssertionError(f"build_w_circuit({n}) ran before the capacity check")


@pytest.mark.parametrize(
    "argv",
    [("verify", "--n", "10001"), ("verify", "--n", "25", "--backend", "dense")],
)
def test_verify_checks_capacity_before_building(monkeypatch, capsys, argv):
    import wstates.cli

    monkeypatch.setattr(wstates.cli, "build_w_circuit", _no_build)
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


def _no_sweep_build(n):
    raise AssertionError(f"build_w_circuit({n}) ran before sweep validated")


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
    import wstates.analysis

    monkeypatch.setattr(wstates.analysis, "build_w_circuit", _no_sweep_build)
    code, out, err = cli(capsys, *argv)
    assert code == expected and out == ""
    assert err.startswith("error: ")
    if expected == 3:
        assert "backend capped at" in err


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
