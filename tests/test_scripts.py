"""scripts/reproduce_reports.py writes what the CLI verbs print."""
import runpy
import sys
from pathlib import Path

import pytest

from wstates.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_reports.py"


def _stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def _run_script(monkeypatch, *argv) -> int:
    """Run the script as a program; its exit code."""
    monkeypatch.setattr(sys, "argv", [str(SCRIPT), *argv])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPT), run_name="__main__")
    return stop.value.code


def test_reproduce_reports_matches_cli(tmp_path, monkeypatch, capsys):
    code = _run_script(monkeypatch, "--outdir", str(tmp_path), "--max-n", "5", "--sizes", "3,5")
    assert code == 0
    assert capsys.readouterr().out == f"wrote 4 files to {tmp_path}/\n"
    expected = {
        "gate_growth.csv": _stdout(capsys, "growth", "--max", "5"),
        "plate_angles.csv": _stdout(capsys, "angles", "--max", "5"),
    }
    for n in (3, 5):
        expected[f"resource_n{n}.json"] = _stdout(
            capsys, "analyze", "--n", str(n), "--gamma", "0.1", "--delta", "0.0001"
        )
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(expected)
    for name, text in expected.items():
        assert (tmp_path / name).read_bytes() == text.encode("utf-8")


def test_reproduce_reports_stops_at_the_first_failing_verb(tmp_path, monkeypatch, capsys):
    code = _run_script(monkeypatch, "--outdir", str(tmp_path), "--max-n", "5", "--gamma", "2")
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    assert err == "error: gamma must be in (0, 1], got 2.0\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["gate_growth.csv", "plate_angles.csv"]


def test_reproduce_reports_rejects_bad_sizes(tmp_path, monkeypatch, capsys):
    code = _run_script(monkeypatch, "--outdir", str(tmp_path), "--sizes", "3,x")
    assert code == 2
    assert "argument --sizes" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())
