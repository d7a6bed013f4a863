"""scripts/reproduce_reports.py writes what the CLI verbs print."""
import runpy
import sys
from pathlib import Path

from wstates.cli import main

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "reproduce_reports.py"


def _stdout(capsys, *argv):
    assert main(list(argv)) == 0
    return capsys.readouterr().out


def test_reproduce_reports_matches_cli(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(
        sys, "argv",
        [str(SCRIPT), "--outdir", str(tmp_path), "--max-n", "5", "--sizes", "3,5"],
    )
    runpy.run_path(str(SCRIPT), run_name="__main__")
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
